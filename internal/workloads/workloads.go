// Package workloads defines the four benchmark serverless workflows the
// paper evaluates — Video-FFmpeg (vid), ML-based Image Processing (img),
// Singular Value Decomposition (svd) and WordCount (wc) — in two forms:
//
//   - a Profile for the simulation plane: the data-flow DAG plus per-
//     function execution times (referenced to a 128 MB container) and per-
//     output data sizes, parameterized by input size and fan-out degree and
//     calibrated so the control-flow communication shares match the paper's
//     Fig. 2(a) characterization (img 26.0 %, vid 49.5 %, svd 35.3 %,
//     wc 89.2 %);
//
//   - real Go handlers for the runtime plane (see handlers.go): an actual
//     word count, a one-sided Jacobi SVD, image convolution/resampling, and
//     a chunked video "transcode" stand-in.
package workloads

import (
	"fmt"
	"math"
	"time"

	"repro/internal/workflow"
)

// Profile describes one benchmark for the simulation plane.
type Profile struct {
	Name     string
	Workflow *workflow.Workflow
	// ExecRef is the function execution time in the 128 MB reference
	// container (scales inversely with container memory).
	ExecRef map[string]time.Duration
	// OutSize is the per-item output size in bytes, keyed "fn.output".
	// FOREACH outputs list the size of each element.
	OutSize map[string]int64
	// Fanout is the FOREACH degree used by Route emissions.
	Fanout int
	// InputSize is the user input payload in bytes.
	InputSize int64
}

// ExecOf returns the reference execution time of fn.
func (p *Profile) ExecOf(fn string) time.Duration { return p.ExecRef[fn] }

// SizeOf returns the per-item size of output fn.output.
func (p *Profile) SizeOf(fn, output string) int64 { return p.OutSize[fn+"."+output] }

// mustParse parses a DSL or panics; profiles are package-defined constants.
func mustParse(src string) *workflow.Workflow {
	w, err := workflow.ParseDSLString(src)
	if err != nil {
		panic(fmt.Sprintf("workloads: bad builtin DSL: %v", err))
	}
	return w
}

const wcDSL = `
workflow wc
function start
  input src from $USER
  output filelist type FOREACH to count.file
function count
  input file
  output result type MERGE to merge.counts
function merge
  input counts type LIST
  output out to $USER
`

// WordCount builds the wc profile: a FOREACH/MERGE map-reduce over text.
// fanout is the number of count branches; inputSize the text size in bytes.
// Communication dominates (~89 % under control flow): the compute per byte
// is tiny relative to the double transfer of the shards.
func WordCount(fanout int, inputSize int64) *Profile {
	if fanout < 1 {
		fanout = 1
	}
	if inputSize <= 0 {
		inputSize = 1 << 20 // 1 MB
	}
	shard := inputSize / int64(fanout)
	mb := float64(inputSize) / float64(1<<20)
	shardMB := float64(shard) / float64(1<<20)
	return &Profile{
		Name:     "wc",
		Workflow: mustParse(wcDSL),
		// Compute grows superlinearly with the data handled per function
		// (hash-map growth and spills), so large inputs become compute
		// bound — the paper's Fig. 16(b) observation that the data-flow
		// advantage shrinks as input size grows.
		ExecRef: map[string]time.Duration{
			"start": scaleDur(8*time.Millisecond, mb),
			"count": scaleDur(18*time.Millisecond, math.Pow(shardMB/0.25, 1.75)),
			"merge": scaleDur(18*time.Millisecond, math.Pow(mb, 1.4)),
		},
		OutSize: map[string]int64{
			"start.filelist": shard,
			"count.result":   shard / 2,
			"merge.out":      inputSize / 16,
		},
		Fanout:    fanout,
		InputSize: inputSize,
	}
}

const imgDSL = `
workflow img
function extract
  input image from $USER
  output meta to transform.meta
  output thumb_src to thumbnail.image
  output detect_src to detect.image
function transform
  input meta
  output tagged to store.meta
function thumbnail
  input image
  output thumb to store.thumb
function detect
  input image
  output objects to store.objects
function store
  input meta
  input thumb
  input objects
  output out to $USER
`

// ImageProcessing builds the img profile: a metadata/thumbnail/ML-detection
// diamond over one uploaded image. Computation dominates (ML inference),
// communication is ~26 % under control flow.
func ImageProcessing(inputSize int64) *Profile {
	if inputSize <= 0 {
		inputSize = 1228800 // 1.2 MB image
	}
	f := float64(inputSize) / 1228800
	return &Profile{
		Name:     "img",
		Workflow: mustParse(imgDSL),
		ExecRef: map[string]time.Duration{
			"extract":   scaleDur(500*time.Millisecond, f),
			"transform": scaleDur(250*time.Millisecond, f),
			"thumbnail": scaleDur(900*time.Millisecond, f),
			"detect":    scaleDur(1600*time.Millisecond, f), // ML inference
			"store":     scaleDur(500*time.Millisecond, f),
		},
		OutSize: map[string]int64{
			"extract.meta":       8 << 10,
			"extract.thumb_src":  inputSize,
			"extract.detect_src": inputSize,
			"transform.tagged":   8 << 10,
			"thumbnail.thumb":    inputSize / 8,
			"detect.objects":     16 << 10,
			"store.out":          inputSize / 8,
		},
		Fanout:    1,
		InputSize: inputSize,
	}
}

const vidDSL = `
workflow vid
function split
  input video from $USER
  output chunks type FOREACH to transcode.chunk
function transcode
  input chunk
  output encoded type MERGE to concat.parts
function concat
  input parts type LIST
  output out to $USER
`

// VideoFFmpeg builds the vid profile: split → parallel transcode → concat.
// Chunks are large, so communication and computation are comparable
// (~50 % each under control flow).
func VideoFFmpeg(fanout int, inputSize int64) *Profile {
	if fanout < 1 {
		fanout = 4
	}
	if inputSize <= 0 {
		inputSize = 6 << 20 // 6 MB clip
	}
	chunk := inputSize / int64(fanout)
	mb := float64(inputSize) / float64(6<<20)
	chunkMB := float64(chunk) / float64(1.5*float64(1<<20))
	return &Profile{
		Name:     "vid",
		Workflow: mustParse(vidDSL),
		ExecRef: map[string]time.Duration{
			"split":     scaleDur(1200*time.Millisecond, mb),
			"transcode": scaleDur(900*time.Millisecond, chunkMB),
			"concat":    scaleDur(1400*time.Millisecond, mb),
		},
		OutSize: map[string]int64{
			"split.chunks":      chunk,
			"transcode.encoded": int64(float64(chunk) * 0.7),
			"concat.out":        int64(float64(inputSize) * 0.7),
		},
		Fanout:    fanout,
		InputSize: inputSize,
	}
}

const svdDSL = `
workflow svd
function partition
  input matrix from $USER
  output blocks type FOREACH to factorize.block
function factorize
  input block
  output partial type MERGE to combine.partials
function combine
  input partials type LIST
  output out to $USER
`

// SVD builds the svd profile: block partition → parallel Jacobi sweeps →
// combine. Compute-heavy numeric kernels put communication at ~35 % under
// control flow.
func SVD(fanout int, inputSize int64) *Profile {
	if fanout < 1 {
		fanout = 4
	}
	if inputSize <= 0 {
		inputSize = 4 << 20 // 4 MB matrix
	}
	block := inputSize / int64(fanout)
	mb := float64(inputSize) / float64(4<<20)
	blockMB := float64(block) / float64(1<<20)
	return &Profile{
		Name:     "svd",
		Workflow: mustParse(svdDSL),
		ExecRef: map[string]time.Duration{
			"partition": scaleDur(400*time.Millisecond, mb),
			"factorize": scaleDur(850*time.Millisecond, blockMB),
			"combine":   scaleDur(1200*time.Millisecond, mb),
		},
		OutSize: map[string]int64{
			"partition.blocks":  block,
			"factorize.partial": block / 8,
			"combine.out":       inputSize / 8,
		},
		Fanout:    fanout,
		InputSize: inputSize,
	}
}

// scaleDur scales d by f (clamped to a 1 ms floor so degenerate parameters
// stay positive).
func scaleDur(d time.Duration, f float64) time.Duration {
	if f <= 0 {
		f = 0.01
	}
	out := time.Duration(float64(d) * f)
	if out < time.Millisecond {
		out = time.Millisecond
	}
	return out
}

// All returns the four benchmarks with their default parameters, keyed by
// name in the paper's order: img, vid, svd, wc.
func All() []*Profile {
	return []*Profile{
		ImageProcessing(0),
		VideoFFmpeg(0, 0),
		SVD(0, 0),
		WordCount(4, 0),
	}
}
