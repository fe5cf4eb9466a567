// Recovery: why redundant arrays exist. This example exercises both
// halves of the media-recovery story:
//
//  1. Correctness — a functional in-memory RAID5 store with real XOR
//     parity: write a "database", fail a drive, read everything back
//     through reconstruction, rebuild onto a spare, verify parity.
//  2. Performance — one OLTP trace replayed against a RAID5 array that
//     is healthy, degraded, rebuilding onto a hot spare from time zero,
//     and losing a drive 30 s in, quantifying the paper's remark that
//     performance suffers during reconstruction.
package main

import (
	"fmt"
	"log"
	"os"

	"raidsim/internal/array"
	"raidsim/internal/blockdev"
	"raidsim/internal/core"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/report"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/workload"
)

func main() {
	functional()
	performance()
}

func functional() {
	fmt.Println("== functional recovery (real XOR parity) ==")
	lay := layout.NewRAID5(4, 600, 2)
	store := blockdev.New(lay, 512)
	src := rng.New(42)

	// Write a little "database".
	content := map[int64][]byte{}
	for i := 0; i < 400; i++ {
		lba := src.Int63n(store.Capacity())
		data := make([]byte, 512)
		for j := range data {
			data[j] = byte(src.Uint64())
		}
		if err := store.Write(lba, data); err != nil {
			log.Fatal(err)
		}
		content[lba] = data
	}
	if err := store.VerifyParity(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d distinct blocks; parity verified\n", len(content))

	if err := store.FailDisk(2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("disk 2 failed — reading everything back degraded...")
	for lba, want := range content {
		got, err := store.Read(lba)
		if err != nil {
			log.Fatalf("lba %d: %v", lba, err)
		}
		if string(got) != string(want) {
			log.Fatalf("lba %d: reconstruction corrupted data", lba)
		}
	}
	fmt.Printf("all blocks intact (%d needed reconstruction)\n", store.Reconstructions)

	n, err := store.Rebuild(2)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.VerifyParity(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt %d blocks onto the spare; parity verified again\n\n", n)
}

// performance replays one OLTP stream against a RAID5 array healthy and
// with disk 0 failed: from time zero with no spare (degraded throughout),
// from time zero with a hot spare (rebuilding under load), and 30 s into
// the run with a hot spare (healthy, then rebuilding).
func performance() {
	p := workload.Trace2Profile().Scaled(0.05)
	tr, err := workload.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	t := &report.Table{
		Title:   "performance while degraded / rebuilding (RAID5, N=10, Trace 2 load)",
		Columns: []string{"mode", "resp (ms)", "resp while degraded (ms)", "degraded reqs", "rebuild (min)"},
	}
	for _, mode := range []struct {
		name   string
		failAt sim.Time // < 0: no failure
		spares int
	}{
		{"healthy", -1, 0},
		{"failed at 0", 0, 0},
		{"failed at 0 + spare", 0, 1},
		{"failed at 30 s + spare", 30 * sim.Second, 1},
	} {
		cfg := core.Config{
			Org: array.OrgRAID5, DataDisks: tr.NumDisks, N: 10,
			Spec: geom.Default(), Sync: array.DF, Seed: 7,
			Spares: mode.spares, RebuildPause: 10 * sim.Millisecond,
		}
		if mode.failAt >= 0 {
			cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: mode.failAt}}}
		}
		res, err := core.Run(cfg, tr)
		if err != nil {
			log.Fatal(err)
		}
		if res.Fault.DataLossEvents != 0 {
			log.Fatalf("%s: lost data with one disk down", mode.name)
		}
		degr, reb := "-", "-"
		if res.DegradedResp.N() > 0 {
			degr = fmt.Sprintf("%.2f", res.DegradedResp.Mean())
		}
		if res.Fault.Rebuilds > 0 {
			reb = fmt.Sprintf("%.1f", float64(res.Fault.RebuildTime)/float64(60*sim.Second))
		}
		t.AddRow(mode.name, fmt.Sprintf("%.2f", res.MeanResponseMS()), degr,
			fmt.Sprintf("%d", res.DegradedResp.N()), reb)
	}
	t.AddNote("degraded = responses completed while a slot was unreadable")
	t.AddNote("no data lost: reads of disk 0 were reconstructed from the survivors")
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Degraded reads fan out to every survivor, and the rebuild sweep")
	fmt.Println("competes for the same arms — the larger the array, the longer the")
	fmt.Println("exposure window the MTTDL model (internal/reliability) charges for.")
}
