// WordCount: the paper's Figure 7 benchmark on the real runtime, with the
// execution trace printed as a Fig. 13-style timeline to show
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
	"repro/internal/trace"
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
	events := trace.NewLog()
	sys, err := core.NewSystem(core.Config{
		Workflow:    prof.Workflow,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 2048},
		Trace:       events,
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
	spans := events.Spans(inv.ReqID())
	fmt.Print(trace.FormatTimeline(spans))
	fmt.Println()
	fmt.Print(trace.Gantt(spans, 60))
}
