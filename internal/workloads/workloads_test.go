package workloads

import (
	"math"
	"testing"
	"time"

	"repro/internal/workflow"
)

func TestAllProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Workflow.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, f := range p.Workflow.Functions {
			if p.ExecOf(f.Name) <= 0 {
				t.Fatalf("%s: function %s has no exec time", p.Name, f.Name)
			}
			for _, o := range f.Outputs {
				if p.SizeOf(f.Name, o.Name) <= 0 {
					t.Fatalf("%s: output %s.%s has no size", p.Name, f.Name, o.Name)
				}
			}
		}
		if p.InputSize <= 0 || p.Fanout < 1 {
			t.Fatalf("%s: bad params %+v", p.Name, p)
		}
	}
}

func TestWordCountParameterization(t *testing.T) {
	small := WordCount(4, 1<<20)
	big := WordCount(4, 16<<20)
	if big.ExecOf("count") <= small.ExecOf("count") {
		t.Fatal("count exec should grow with input size")
	}
	if big.SizeOf("start", "filelist") != 4<<20 {
		t.Fatalf("shard = %d", big.SizeOf("start", "filelist"))
	}
	wide := WordCount(16, 1<<20)
	if wide.SizeOf("start", "filelist") >= small.SizeOf("start", "filelist") {
		t.Fatal("shard should shrink with fan-out")
	}
	if wide.Fanout != 16 {
		t.Fatalf("fanout = %d", wide.Fanout)
	}
	// Degenerate parameters clamp.
	p := WordCount(0, 0)
	if p.Fanout != 1 || p.InputSize != 1<<20 {
		t.Fatalf("clamped params: %+v", p)
	}
}

func TestScaleDurFloor(t *testing.T) {
	if d := scaleDur(time.Second, 0); d != 10*time.Millisecond {
		t.Fatalf("scaleDur(1s, 0) = %v", d)
	}
	if d := scaleDur(100*time.Millisecond, 1e-9); d != time.Millisecond {
		t.Fatalf("floor broken: %v", d)
	}
}

func TestCommunicationShareOrdering(t *testing.T) {
	// Sanity: the per-profile comm/comp ratios under a 128 MB container and
	// double transfer through storage should order wc > vid > svd > img,
	// matching Fig. 2(a)'s characterization.
	ratio := func(p *Profile) float64 {
		const bw = 5e6 // 40 Mbps container
		comm, comp := 0.0, 0.0
		order, _ := p.Workflow.TopoOrder()
		for _, fn := range order {
			f, _ := p.Workflow.Function(fn)
			// One instance's compute on the (parallel-branch) critical path.
			comp += p.ExecOf(fn).Seconds()
			var in int64
			if len(p.Workflow.Predecessors(fn)) == 0 {
				in = p.InputSize
			}
			for _, e := range p.Workflow.Edges() {
				if e.To != fn {
					continue
				}
				sz := p.SizeOf(e.From, e.Output)
				if e.Kind == workflow.Merge {
					sz *= int64(p.Fanout) // fan-in collects every branch
				}
				in += sz
			}
			var out int64
			for _, o := range f.Outputs {
				sz := p.SizeOf(fn, o.Name)
				if o.Kind == workflow.Foreach {
					sz *= int64(p.Fanout) // fan-out ships every element
				}
				out += sz
			}
			comm += (float64(in) + float64(out)) / bw
		}
		return comm / (comm + comp)
	}
	img, vid, svd, wc := ImageProcessing(0), VideoFFmpeg(0, 0), SVD(0, 0), WordCount(4, 0)
	rImg, rVid, rSvd, rWc := ratio(img), ratio(vid), ratio(svd), ratio(wc)
	if !(rWc > rVid && rVid > rSvd && rSvd > rImg) {
		t.Fatalf("comm share ordering broken: img=%.2f vid=%.2f svd=%.2f wc=%.2f",
			rImg, rVid, rSvd, rWc)
	}
	if rWc < 0.7 {
		t.Fatalf("wc comm share %.2f, want comm-dominated (>0.7)", rWc)
	}
	if rImg > 0.5 {
		t.Fatalf("img comm share %.2f, want compute-dominated (<0.5)", rImg)
	}
}

func TestMatrixMarshalRoundTrip(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := range m.Data {
		m.Data[i] = float64(i) * 1.5
	}
	back, err := UnmarshalMatrix(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != 3 || back.Cols != 2 {
		t.Fatalf("dims %dx%d", back.Rows, back.Cols)
	}
	for i := range m.Data {
		if back.Data[i] != m.Data[i] {
			t.Fatalf("data[%d] = %v", i, back.Data[i])
		}
	}
}

func TestUnmarshalMatrixRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalMatrix([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob accepted")
	}
	bad := NewMatrix(2, 2).Marshal()[:20] // truncated data
	if _, err := UnmarshalMatrix(bad); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

func TestSingularValuesKnownMatrix(t *testing.T) {
	// Diagonal matrix: singular values are |diagonal| sorted descending.
	m := NewMatrix(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, -5)
	m.Set(2, 2, 1)
	sv := m.SingularValues()
	want := []float64{5, 3, 1}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-8 {
			t.Fatalf("sv = %v, want %v", sv, want)
		}
	}
}

func TestSingularValuesMatchGramEigen(t *testing.T) {
	// Property: svd via Jacobi equals sqrt(eig(AᵀA)) via the block path.
	m := NewMatrix(8, 4)
	for i := range m.Data {
		m.Data[i] = math.Sin(float64(i)*1.3) * 2.0
	}
	direct := m.SingularValues()
	// Blocked: sum of per-block Gram matrices.
	acc := NewMatrix(4, 4)
	for _, blk := range m.RowBlocks(3) {
		blk.GramSum(acc)
	}
	ev := acc.SymmetricEigenvalues()
	for i := range direct {
		got := math.Sqrt(math.Max(0, ev[i]))
		if math.Abs(direct[i]-got) > 1e-6 {
			t.Fatalf("sv[%d]: direct %v vs blocked %v", i, direct[i], got)
		}
	}
}

func TestRowBlocksCoverMatrix(t *testing.T) {
	m := NewMatrix(7, 2)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	blocks := m.RowBlocks(3)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	rows := 0
	for _, b := range blocks {
		rows += b.Rows
		if b.Cols != 2 {
			t.Fatalf("cols = %d", b.Cols)
		}
	}
	if rows != 7 {
		t.Fatalf("rows = %d", rows)
	}
	// Clamps.
	if len(m.RowBlocks(0)) != 1 || len(m.RowBlocks(100)) != 7 {
		t.Fatal("clamping broken")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	tt := m.Transpose().Transpose()
	for i := range m.Data {
		if tt.Data[i] != m.Data[i] {
			t.Fatal("transpose not involutive")
		}
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	in := []float64{1.5, -2.25, 0}
	out, err := UnmarshalFloats(marshalFloats(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("out = %v", out)
		}
	}
	if _, err := UnmarshalFloats([]byte{1}); err == nil {
		t.Fatal("short blob accepted")
	}
}

func TestImageRoundTripAndOps(t *testing.T) {
	im := GenImage(64, 48, 1)
	back, err := UnmarshalImage(im.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.W != 64 || back.H != 48 || len(back.Pix) != 64*48 {
		t.Fatalf("image %dx%d", back.W, back.H)
	}
	th := im.Thumbnail(4)
	if th.W != 16 || th.H != 12 {
		t.Fatalf("thumbnail %dx%d", th.W, th.H)
	}
	blurred := im.BoxBlur(1)
	if len(blurred.Pix) != len(im.Pix) {
		t.Fatal("blur changed dimensions")
	}
	// Blur must reduce total variation.
	tv := func(im *Image) int {
		sum := 0
		for i := 1; i < len(im.Pix); i++ {
			d := int(im.Pix[i]) - int(im.Pix[i-1])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum
	}
	if tv(blurred) >= tv(im) {
		t.Fatal("blur did not smooth")
	}
	if im.DetectBright() <= 0 {
		t.Fatal("synthetic image should contain bright regions")
	}
	if _, err := UnmarshalImage([]byte{0}); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestGenImageDeterministic(t *testing.T) {
	a := GenImage(32, 32, 7)
	b := GenImage(32, 32, 7)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("GenImage not deterministic")
		}
	}
}

func TestTranscodeCompresses(t *testing.T) {
	in := make([]byte, 1000)
	for i := range in {
		in[i] = byte(i * 7)
	}
	out := Transcode(in)
	if len(out) != 500 {
		t.Fatalf("transcode output %d bytes, want 500", len(out))
	}
	// Deterministic.
	out2 := Transcode(in)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("transcode not deterministic")
		}
	}
}
