// Command dataflower runs serverless workflows on the in-process
// DataFlower runtime (the FLU/DLU engine of internal/core).
//
// Usage:
//
//	dataflower -workload wc -text "a b a"      # real word count
//	dataflower -workload svd                   # block SVD on a random matrix
//	dataflower -workload img                   # image pipeline
//	dataflower -workload vid                   # video pipeline
//	dataflower -validate my-workflow.dsl       # parse + validate a DSL file
//
// The workload runs on an in-process cluster of -nodes worker nodes with
// per-container resource shaping, and the command prints the result, the
// end-to-end latency and the engine's routing table. With -http the
// observability endpoints (/metrics, /debug/requests, /debug/health) are
// mounted before the run and the command stays alive after it, serving
// them until interrupted; -sample turns on 1-in-N span tracing. For the
// same engine split across OS processes (Wait-Match Memory shards served
// over the TCP transport), see cmd/node.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

func main() {
	workloadName := flag.String("workload", "", "builtin workload: wc, svd, img, vid")
	text := flag.String("text", "the quick brown fox jumps over the lazy dog the fox", "input text for wc")
	fanout := flag.Int("fanout", 3, "fan-out degree for wc/svd/vid")
	nodes := flag.Int("nodes", 3, "worker nodes in the in-process cluster")
	memMB := flag.Int("mem", 1024, "container memory spec (MB)")
	validate := flag.String("validate", "", "path of a workflow DSL file to parse and validate")
	httpAddr := flag.String("http", "", "obs endpoint address (/metrics, /debug/requests); empty disables")
	sample := flag.Int("sample", 0, "sample 1 request in N for span tracing (0 = off)")
	flag.Parse()

	switch {
	case *validate != "":
		if err := validateDSL(*validate); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *workloadName != "":
		if err := runWorkload(*workloadName, *text, *fanout, *nodes, *memMB, *httpAddr, *sample); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func validateDSL(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	wf, err := workflow.ParseDSL(f)
	if err != nil {
		return err
	}
	order, _ := wf.TopoOrder()
	fmt.Printf("workflow %s: %d functions, valid\n", wf.Name, len(wf.Functions))
	fmt.Printf("topological order: %s\n", strings.Join(order, " -> "))
	fmt.Printf("critical path length: %d\n", wf.CriticalPathLen())
	return nil
}

func buildSystem(prof *workloads.Profile, nodes, memMB, sample int) (*core.System, error) {
	cl := cluster.NewCluster(nil)
	for i := 0; i < nodes; i++ {
		node := cluster.NewNode(fmt.Sprintf("w%d", i+1), cluster.Options{
			ColdStart: 5 * time.Millisecond,
			SinkTTL:   time.Minute,
		})
		node.RegisterSinkGauges()
		if err := cl.AddNode(node); err != nil {
			return nil, err
		}
	}
	return core.NewSystem(core.Config{
		Workflow:    prof.Workflow,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: memMB},
		Obs:         core.ObsConfig{SampleEvery: sample},
	})
}

func runWorkload(name, text string, fanout, nodes, memMB int, httpAddr string, sample int) error {
	var prof *workloads.Profile
	var input map[string][]byte
	var render func(out []byte) string

	switch name {
	case "wc":
		prof = workloads.WordCount(fanout, 0)
		input = map[string][]byte{"start.src": []byte(text)}
		render = func(out []byte) string { return string(out) }
	case "svd":
		prof = workloads.SVD(fanout, 0)
		m := workloads.NewMatrix(24, 6)
		r := rand.New(rand.NewSource(1))
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		input = map[string][]byte{"partition.matrix": m.Marshal()}
		render = func(out []byte) string {
			sv, err := workloads.UnmarshalFloats(out)
			if err != nil {
				return fmt.Sprintf("decode error: %v", err)
			}
			return fmt.Sprintf("singular values: %.4f", sv)
		}
	case "img":
		prof = workloads.ImageProcessing(0)
		im := workloads.GenImage(256, 192, 7)
		input = map[string][]byte{"extract.image": im.Marshal()}
		render = func(out []byte) string { return string(out) }
	case "vid":
		prof = workloads.VideoFFmpeg(fanout, 0)
		video := make([]byte, 1<<20)
		rand.New(rand.NewSource(2)).Read(video)
		input = map[string][]byte{"split.video": video}
		render = func(out []byte) string {
			return fmt.Sprintf("transcoded %d bytes -> %d bytes", 1<<20, len(out))
		}
	default:
		return fmt.Errorf("unknown workload %q (want wc, svd, img, vid)", name)
	}

	sys, err := buildSystem(prof, nodes, memMB, sample)
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	if httpAddr != "" {
		obs.Default().Ring().SetOrigin("dataflower")
		h := obs.Handler(obs.Default(), obs.HandlerOpts{Health: func() any {
			return map[string]any{"pending": sys.PendingInvocations(), "workload": name}
		}})
		bound, closeObs, err := obs.Serve(httpAddr, h)
		if err != nil {
			return err
		}
		defer closeObs() //nolint:errcheck
		fmt.Printf("obs listening on %s\n", bound)
	}
	switch name {
	case "wc":
		err = workloads.RegisterWordCount(sys, fanout)
	case "svd":
		err = workloads.RegisterSVD(sys, fanout)
	case "img":
		err = workloads.RegisterImagePipeline(sys)
	case "vid":
		err = workloads.RegisterVideoPipeline(sys, fanout)
	}
	if err != nil {
		return err
	}

	fmt.Printf("routing table:\n")
	for fn, node := range sys.Routing() {
		fmt.Printf("  %-12s -> %s\n", fn, node)
	}
	inv, err := sys.Invoke(input)
	if err != nil {
		return err
	}
	if err := inv.Wait(); err != nil {
		return err
	}
	out, ok := inv.OutputBytes("out")
	if !ok {
		return fmt.Errorf("no user output produced")
	}
	fmt.Printf("\nresult:\n%s\n", render(out))
	fmt.Printf("latency: %v\n", inv.Latency().Round(time.Microsecond))
	if httpAddr != "" {
		fmt.Println("serving obs endpoints; interrupt to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return nil
}
