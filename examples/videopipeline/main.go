// Video pipeline: split → parallel transcode → concat over real bytes, with
// an injected mid-stream transfer failure to demonstrate checkpointed ReDo
// (§6.2 fault tolerance), and tight container bandwidth to demonstrate
// pressure-aware blocking (§5.2).
//
//	go run ./examples/videopipeline
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workloads"
)

func main() {
	const fanout = 4
	prof := workloads.VideoFFmpeg(fanout, 0)

	cl := cluster.NewCluster(nil)
	for i := 1; i <= 3; i++ {
		if err := cl.AddNode(cluster.NewNode(fmt.Sprintf("w%d", i), cluster.Options{
			ColdStart: time.Millisecond,
		})); err != nil {
			log.Fatal(err)
		}
	}
	sys, err := core.NewSystem(core.Config{
		Workflow: prof.Workflow,
		Cluster:  cl,
		// A modest container: transfers are visibly paced, so the pressure
		// mechanism engages on the large chunks.
		DefaultSpec: cluster.Spec{MemoryMB: 4 * 1024},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()
	if err := workloads.RegisterVideoPipeline(sys, fanout); err != nil {
		log.Fatal(err)
	}

	// Inject exactly one mid-stream transfer failure on a split->transcode
	// stream; the connector resumes from its last checkpoint.
	var injected int32
	sys.SetTransferFailureInjector(func(streamID string) int64 {
		if strings.Contains(streamID, "split") &&
			atomic.CompareAndSwapInt32(&injected, 0, 1) {
			return 96 << 10
		}
		return -1
	})

	video := make([]byte, 2<<20)
	rand.New(rand.NewSource(99)).Read(video)
	inv, err := sys.Invoke(map[string][]byte{"split.video": video})
	if err != nil {
		log.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		log.Fatal(err)
	}
	out, _ := inv.OutputBytes("out")
	fmt.Printf("transcoded %d bytes -> %d bytes in %v\n",
		len(video), len(out), inv.Latency().Round(time.Millisecond))
	if atomic.LoadInt32(&injected) == 1 {
		fmt.Println("a split->transcode stream failed mid-flight and was resumed from its checkpoint ✓")
	}
}
