package dblsh_test

import (
	"bytes"
	"fmt"
	"log"

	"dblsh"
)

// Build an index over a toy dataset and retrieve the nearest neighbors of a
// query vector.
func ExampleNew() {
	data := [][]float32{
		{0, 0}, {1, 0}, {0, 1},
		{10, 10}, {11, 10}, {10, 11},
	}
	idx, err := dblsh.New(data, dblsh.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	hits, err := idx.SearchOpts([]float32{10.2, 10.1}, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Println(h.ID)
	}
	// Output:
	// 3
	// 4
	// 5
}

// Persist an index to a buffer (or file) and reload it; the reloaded index
// answers identically because construction is deterministic in the seed.
func ExampleIndex_WriteTo() {
	data := [][]float32{{0, 0}, {5, 5}, {9, 9}}
	idx, err := dblsh.New(data, dblsh.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := dblsh.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	hits, err := loaded.SearchOpts([]float32{4.8, 5.1}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hits[0].ID)
	// Output:
	// 1
}

// Grow and shrink a live index.
func ExampleIndex_Add() {
	data := [][]float32{{0, 0}, {100, 100}}
	// A tight approximation ratio makes the toy answers exact.
	idx, err := dblsh.New(data, dblsh.Options{C: 1.05, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	id, err := idx.Add([]float32{50, 50})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("added id:", id)

	hits, err := idx.SearchOpts([]float32{30, 30}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nearest:", hits[0].ID)

	if _, err := idx.DeleteWithError(id); err != nil {
		log.Fatal(err)
	}
	hits, err = idx.SearchOpts([]float32{30, 30}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after delete:", hits[0].ID)
	// Output:
	// added id: 2
	// nearest: 2
	// after delete: 0
}
