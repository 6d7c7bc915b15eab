// WordCount: the paper's Figure 7 benchmark on the real runtime, with the
// request's sampled span printed as a Fig. 13-style timeline to show
// data-availability triggering.
//
//	go run ./examples/wordcount
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	const fanout = 3
	prof := workloads.WordCount(fanout, 0)

	cl := cluster.NewCluster(nil)
	for i := 1; i <= 3; i++ {
		if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{
			ColdStart: time.Millisecond,
			SinkTTL:   30 * time.Second,
		})); err != nil {
			log.Fatal(err)
		}
	}
	sys, err := core.NewSystem(core.Config{
		Workflow:    prof.Workflow,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 2048},
		Obs:         core.ObsConfig{SampleEvery: 1}, // record every request's span
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()
	if err := workloads.RegisterWordCount(sys, fanout); err != nil {
		log.Fatal(err)
	}

	text := strings.Repeat("serverless workflows love the data-flow paradigm ", 200)
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte(text)})
	if err != nil {
		log.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		log.Fatal(err)
	}

	out, _ := inv.OutputBytes("out")
	fmt.Println("word counts:")
	fmt.Println(string(out))
	fmt.Printf("end-to-end latency: %v\n\n", inv.Latency().Round(time.Microsecond))

	fmt.Println("function timeline (data-availability triggering):")
	// The System publishes its span ring to the process's registry.
	spans := obs.Spans(obs.Default().Ring().Stages(inv.ReqID()))
	fmt.Print(obs.FormatTimeline(spans))
	fmt.Println()
	fmt.Print(obs.Gantt(spans, 60))
}
