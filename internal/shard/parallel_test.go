package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dblsh/internal/core"
	"dblsh/internal/vec"
)

// assertSameResults fails unless a and b are the same neighbor sequence,
// bit for bit — the parallel fan-out's contract against the sequential
// reference path.
func assertSameResults(t *testing.T, label string, a, b []vec.Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: rank %d diverges: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestParallelLadderEquivalence is the differential oracle for the parallel
// per-round fan-out: for every combination of shard count, k, candidate
// budget and filter — before and after deletes and an explicit compaction —
// the parallel path must return exactly the sequential path's results and
// ladder accounting (candidates consumed, rounds run, final radius).
func TestParallelLadderEquivalence(t *testing.T) {
	const n, d = 1500, 12
	for _, shards := range []int{1, 2, 3, 8} {
		s, flat, queries := buildSet(n, d, shards, 113)
		seq := s.NewSearcher()
		par := s.NewSearcher()

		check := func(t *testing.T, stage string) {
			for _, k := range []int{1, 7, 40} {
				for _, tb := range []int{0, 5} { // 0 = the build-time budget
					for _, withFilter := range []bool{false, true} {
						p := core.QueryParams{T: tb}
						if withFilter {
							p.Filter = func(g int) bool { return g%3 != 0 }
						}
						for qi, q := range queries {
							ps := p
							ps.Parallelism = 1
							a, err := seq.Search(q, k, ps)
							if err != nil {
								t.Fatal(err)
							}
							sst := seq.LastStats()

							pp := p
							pp.Parallelism = shards // full fan-out
							b, err := par.Search(q, k, pp)
							if err != nil {
								t.Fatal(err)
							}
							pst := par.LastStats()

							label := fmt.Sprintf("%s shards=%d k=%d t=%d filter=%v q=%d",
								stage, shards, k, tb, withFilter, qi)
							assertSameResults(t, label, a, b)
							if sst.Candidates != pst.Candidates ||
								sst.Rounds != pst.Rounds ||
								sst.FinalR != pst.FinalR {
								t.Fatalf("%s: ladder accounting diverges: seq{cand=%d rounds=%d r=%v} vs par{cand=%d rounds=%d r=%v}",
									label, sst.Candidates, sst.Rounds, sst.FinalR,
									pst.Candidates, pst.Rounds, pst.FinalR)
							}
							if shards > 1 && sst.ParallelRounds != 0 {
								t.Fatalf("%s: sequential path counted %d parallel rounds", label, sst.ParallelRounds)
							}
							if shards > 1 && pst.ParallelRounds == 0 {
								t.Fatalf("%s: parallel path counted no parallel rounds", label)
							}
							seen := make(map[int]bool, len(b))
							for _, nb := range b {
								if seen[nb.ID] {
									t.Fatalf("%s: duplicate id %d in results", label, nb.ID)
								}
								seen[nb.ID] = true
							}
						}
					}
				}
			}
		}

		t.Run(fmt.Sprintf("shards=%d/fresh", shards), func(t *testing.T) { check(t, "fresh") })

		// Tombstone a third of the corpus and re-verify: deleted points must
		// be skipped identically on both paths.
		for g := 0; g < n; g += 3 {
			s.Delete(g)
		}
		t.Run(fmt.Sprintf("shards=%d/deleted", shards), func(t *testing.T) { check(t, "deleted") })

		// Compact every shard (rebuilding indexes and breaking the stripe
		// pattern) and re-verify against the rebuilt layout.
		s.Compact()
		t.Run(fmt.Sprintf("shards=%d/compacted", shards), func(t *testing.T) { check(t, "compacted") })

		_ = flat
	}
}

// TestParallelEquivalenceUnderCompaction races parallel queries against
// background compactions and concurrent mutations. The corpus mutates while
// the queries run, so there is no sequential twin to compare against;
// instead every answer must satisfy the invariants both paths guarantee:
// sorted results, no duplicate ids, and sane ladder accounting. Run under
// -race this also nets any unsynchronized access between the round workers,
// the merge, and compaction's index swap.
func TestParallelEquivalenceUnderCompaction(t *testing.T) {
	const n, d, S = 2000, 8, 4
	flat, queries := corpus(n, d, 131)
	s := Build(flat, n, d, S, 0, core.Config{K: 4, L: 2, T: 20, Seed: 131})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sr := s.NewSearcher()
			p := core.QueryParams{Parallelism: S}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				nbs, err := sr.Search(queries[(i+w)%len(queries)], 10, p)
				if err != nil {
					errs <- err
					return
				}
				seen := map[int]bool{}
				for j, nb := range nbs {
					if j > 0 && nb.Dist < nbs[j-1].Dist {
						errs <- fmt.Errorf("results not sorted at rank %d", j)
						return
					}
					if seen[nb.ID] {
						errs <- fmt.Errorf("duplicate id %d", nb.ID)
						return
					}
					seen[nb.ID] = true
				}
				if st := sr.LastStats(); st.Rounds > 0 && st.ParallelRounds == 0 {
					errs <- fmt.Errorf("parallel query ran %d rounds, none fanned out", st.Rounds)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // deleter feeding the compactor tombstones
		defer wg.Done()
		for g := 0; g < n; g += 2 {
			s.Delete(g)
		}
	}()
	wg.Add(1)
	go func() { // compactor swapping indexes under the queries
		defer wg.Done()
		for i := 0; i < 6; i++ {
			for sh := 0; sh < S; sh++ {
				s.CompactShard(sh)
			}
		}
	}()
	wg.Add(1)
	go func() { // writer breaking the stripe pattern mid-flight
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		v := make([]float32, d)
		for i := 0; i < 300; i++ {
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			s.Add(v)
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzParallelLadderEquivalence feeds randomized corpus shapes and query
// knobs through both ladder paths and requires bit-identical answers. It is
// the differential fuzzer the CI fuzz-smoke job runs.
func FuzzParallelLadderEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(3), uint8(5), uint8(0), uint8(0))
	f.Add(int64(42), uint16(400), uint8(2), uint8(1), uint8(10), uint8(3))
	f.Add(int64(7), uint16(90), uint8(8), uint8(40), uint8(4), uint8(2))
	f.Add(int64(99), uint16(333), uint8(4), uint8(7), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, rawN uint16, rawShards, rawK, rawT, delEvery uint8) {
		n := 60 + int(rawN)%500
		shards := 2 + int(rawShards)%7 // ≥ 2: single-shard bypasses the coordinator
		k := 1 + int(rawK)%20
		tb := int(rawT) % 30 // 0 inherits the build-time budget
		const d = 6

		flat, queries := corpus(n, d, seed)
		s := Build(flat, n, d, shards, 0, core.Config{K: 4, L: 2, T: 20, Seed: seed})
		if delEvery > 1 {
			for g := 0; g < n; g += int(delEvery) {
				s.Delete(g)
			}
		}

		seq := s.NewSearcher()
		par := s.NewSearcher()
		for qi, q := range queries[:3] {
			ps := core.QueryParams{T: tb, Parallelism: 1}
			a, err := seq.Search(q, k, ps)
			if err != nil {
				t.Fatal(err)
			}
			sst := seq.LastStats()

			pp := core.QueryParams{T: tb, Parallelism: shards}
			b, err := par.Search(q, k, pp)
			if err != nil {
				t.Fatal(err)
			}
			pst := par.LastStats()

			label := fmt.Sprintf("n=%d shards=%d k=%d t=%d del=%d q=%d", n, shards, k, tb, delEvery, qi)
			assertSameResults(t, label, a, b)
			if sst.Candidates != pst.Candidates || sst.Rounds != pst.Rounds || sst.FinalR != pst.FinalR {
				t.Fatalf("%s: accounting diverges: seq{%d %d %v} vs par{%d %d %v}",
					label, sst.Candidates, sst.Rounds, sst.FinalR,
					pst.Candidates, pst.Rounds, pst.FinalR)
			}
		}
	})
}
