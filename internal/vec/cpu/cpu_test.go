package cpu

import (
	"runtime"
	"sort"
	"testing"
)

func TestDetectStable(t *testing.T) {
	if Detect() != Detect() {
		t.Fatal("Detect is not stable across calls")
	}
}

func TestFeatureConsistency(t *testing.T) {
	f := Detect()
	if f.AVX2 && !f.AVX {
		t.Fatal("AVX2 reported without AVX")
	}
	if f.AVX512F && !f.AVX2 {
		// Every AVX-512 part implements AVX2; a contrary report means the
		// OS-support masking went wrong.
		t.Fatal("AVX512F reported without AVX2")
	}
	if runtime.GOARCH != "amd64" && f != (Features{}) {
		t.Fatalf("features %+v reported on %s", f, runtime.GOARCH)
	}
}

func TestListSortedAndConsistent(t *testing.T) {
	f := Detect()
	names := f.List()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("List() not sorted: %v", names)
	}
	has := func(s string) bool {
		for _, n := range names {
			if n == s {
				return true
			}
		}
		return false
	}
	if has("avx2") != f.AVX2 || has("fma") != f.FMA {
		t.Fatalf("List() %v inconsistent with %+v", names, f)
	}
}
