// Concurrent serving: a sharded index under simultaneous search, insert
// and delete traffic, with online compaction reclaiming tombstone debt
// while queries keep flowing — the workload the single-lock design of a
// classic index cannot serve.
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dblsh"
)

func main() {
	const (
		n      = 50_000
		dim    = 64
		shards = 8
	)
	rng := rand.New(rand.NewSource(3))
	centers := make([][]float32, 40)
	for i := range centers {
		centers[i] = randVec(rng, dim, 10)
	}
	data := make([][]float32, n)
	for i := range data {
		data[i] = jitter(rng, centers[rng.Intn(len(centers))], 1)
	}

	idx, err := dblsh.New(data, dblsh.Options{
		Seed:            3,
		Shards:          shards,
		CompactFraction: 0.25, // auto-rebuild a shard at 25% tombstones
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors of dim %d across %d shards\n\n",
		idx.Len(), idx.Dim(), idx.Shards())

	// Three kinds of traffic share the index for two seconds with no
	// coordination: every operation below is safe to overlap with every
	// other one.
	var searches, adds, deletes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ { // searchers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := idx.NewSearcher()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := jitter(rng, centers[rng.Intn(len(centers))], 0.5)
				if _, err := s.SearchOpts(q, 10); err != nil {
					log.Fatal(err)
				}
				searches.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() { // writer: locks one shard per insert
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := idx.Add(jitter(rng, centers[rng.Intn(len(centers))], 1)); err != nil {
				log.Fatal(err)
			}
			adds.Add(1)
		}
	}()
	wg.Add(1)
	go func() { // deleter: tombstones trigger background compaction
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			ok, err := idx.DeleteWithError(rng.Intn(n))
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				deletes.Add(1)
			}
		}
	}()

	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	fmt.Printf("2s of mixed traffic: %d searches, %d adds, %d deletes\n",
		searches.Load(), adds.Load(), deletes.Load())
	fmt.Printf("tombstones remaining before final compact: %d\n", idx.Deleted())
	reclaimed := idx.Compact() // one shard write-locked at a time
	fmt.Printf("final Compact() reclaimed %d rows\n\n", reclaimed)

	fmt.Println("per-shard state:")
	for _, st := range idx.ShardStats() {
		auto := "never compacted"
		if !st.LastCompaction.IsZero() {
			auto = fmt.Sprintf("%d compaction(s), last %s ago",
				st.Compactions, time.Since(st.LastCompaction).Round(time.Millisecond))
		}
		fmt.Printf("  shard %d: %6d live / %6d resident — %s\n",
			st.Shard, st.Live, st.Size, auto)
	}
}

func randVec(rng *rand.Rand, dim int, scale float64) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * scale)
	}
	return v
}

func jitter(rng *rand.Rand, base []float32, std float64) []float32 {
	v := make([]float32, len(base))
	for i := range v {
		v[i] = base[i] + float32(rng.NormFloat64()*std)
	}
	return v
}
