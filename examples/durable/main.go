// Example: a durable vector store that survives process death.
//
// The program runs twice over the same directory. The first run creates the
// store, inserts vectors, deletes a few, and exits WITHOUT calling Close —
// simulating a crash. The second run reopens the directory: the checkpoint
// loads, the write-ahead op log replays on top of it, and every
// acknowledged mutation is back under its original id.
//
//	go run ./examples/durable            # uses a temp directory, runs both phases
//	go run ./examples/durable -dir ./db  # or point it at a real directory
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"dblsh"
)

const (
	dim = 32
	n   = 2000
)

func main() {
	dirFlag := flag.String("dir", "", "store directory (empty: fresh temp dir)")
	flag.Parse()

	dir := *dirFlag
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "dblsh-durable-*"); err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
	}

	fmt.Println("=== phase 1: create, mutate, crash ===")
	phase1(dir)
	fmt.Println("\n=== phase 2: recover ===")
	phase2(dir)
}

func phase1(dir string) {
	idx, err := dblsh.Open(dir, dblsh.Options{
		Dim:  dim,
		Sync: dblsh.SyncAlways, // every mutation is durable before Add/DeleteWithError returns
		// CheckpointEvery could bound log growth in a long-lived process;
		// this run is short enough to recover purely from the log.
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	start := time.Now()
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64() * 10)
		}
		if _, err := idx.Add(v); err != nil {
			log.Fatal(err)
		}
	}
	for id := 0; id < n; id += 10 {
		if _, err := idx.DeleteWithError(id); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("inserted %d and deleted %d vectors in %v\n",
		n, idx.Deleted(), time.Since(start).Round(time.Millisecond))

	st, _ := idx.Durability()
	fmt.Printf("op log: %d bytes, %d ops awaiting the next checkpoint\n",
		st.LogBytes, st.OpsSinceCheckpoint)

	// Crash: the process "dies" here — no Close, no Checkpoint. Everything
	// rides on the op log.
	fmt.Println("exiting without Close (simulated crash)")
}

func phase2(dir string) {
	start := time.Now()
	idx, err := dblsh.Open(dir, dblsh.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("recovered %d vectors (%d tombstoned) in %v\n",
		idx.Len(), idx.Deleted(), time.Since(start).Round(time.Millisecond))

	if idx.Len() != n || idx.NextID() != n {
		log.Fatalf("recovery mismatch: Len=%d NextID=%d, want %d", idx.Len(), idx.NextID(), n)
	}

	// The recovered store answers queries and accepts new mutations
	// immediately.
	rng := rand.New(rand.NewSource(42))
	v0 := make([]float32, dim)
	for j := range v0 {
		v0[j] = float32(rng.NormFloat64() * 10)
	}
	res, err := idx.SearchOpts(v0, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query for the first inserted vector (id 0 was deleted): top hit id=%d dist=%.3f\n",
		res[0].ID, res[0].Dist)

	id, err := idx.Add(v0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new insert continues the id space at %d\n", id)

	// A checkpoint absorbs the replayed history so the next open is pure
	// snapshot load.
	if err := idx.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	st, _ := idx.Durability()
	fmt.Printf("after checkpoint: log %d bytes, %d pending ops\n", st.LogBytes, st.OpsSinceCheckpoint)
}
