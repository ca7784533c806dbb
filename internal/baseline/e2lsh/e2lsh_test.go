package e2lsh

import (
	"math/rand"
	"testing"

	"dblsh/internal/lsh"
	"dblsh/internal/vec"
)

func clustered(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, 8)
	for i := range centers {
		c := make([]float32, d)
		for j := range c {
			c[j] = float32(rng.NormFloat64() * 10)
		}
		centers[i] = c
	}
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(8)]
		for j := 0; j < d; j++ {
			m.Row(i)[j] = c[j] + float32(rng.NormFloat64())
		}
	}
	return m
}

func TestBucketKeyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fns := make([]lsh.Bucketed, 4)
	for i := range fns {
		fns[i] = lsh.NewBucketed(8, 4, rng)
	}
	o := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if bucketKey(fns, o) != bucketKey(fns, o) {
		t.Fatal("bucketKey not deterministic")
	}
	// A far point should land in a different compound bucket.
	far := []float32{100, -100, 100, -100, 100, -100, 100, -100}
	if bucketKey(fns, o) == bucketKey(fns, far) {
		t.Fatal("far points share a compound bucket (possible but vanishingly unlikely)")
	}
}

func TestSelfQueryFindsSelf(t *testing.T) {
	data := clustered(2000, 16, 2)
	idx := Build(data, Config{C: 1.5, K: 6, L: 4, T: 50, Seed: 2})
	// A query identical to a data point shares every hash at every level.
	res := idx.KANN(data.Row(9), 1)
	if len(res) != 1 || res[0].Dist != 0 {
		t.Fatalf("self-query result %+v", res)
	}
}

func TestLevelsCachedAcrossQueries(t *testing.T) {
	data := clustered(1000, 8, 3)
	idx := Build(data, Config{C: 1.5, K: 4, L: 2, T: 20, Seed: 3})
	idx.KANN(data.Row(0), 3)
	after1 := len(idx.levels)
	idx.KANN(data.Row(1), 3)
	after2 := len(idx.levels)
	if after1 == 0 {
		t.Fatal("no levels after first query")
	}
	if after2 > after1+4 {
		t.Fatalf("levels keep growing: %d -> %d", after1, after2)
	}
}

func TestE2LSHLevelsGrowLazily(t *testing.T) {
	data := clustered(1000, 8, 2)
	idx := Build(data, Config{C: 1.5, K: 8, L: 3, T: 50, Seed: 2})
	if len(idx.levels) != 0 {
		t.Fatalf("levels before first query = %d", len(idx.levels))
	}
	idx.KANN(data.Row(0), 5)
	if len(idx.levels) == 0 {
		t.Fatal("no levels materialized by a query")
	}
}

func TestBuildPanicsWithoutKL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(vec.NewMatrix(1, 2), Config{})
}

func TestEmptyData(t *testing.T) {
	idx := Build(vec.NewMatrix(0, 8), Config{K: 4, L: 2, Seed: 4})
	if res := idx.KANN(make([]float32, 8), 3); len(res) != 0 {
		t.Fatalf("empty data returned %v", res)
	}
}
