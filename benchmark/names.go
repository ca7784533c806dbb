package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list; the
// names test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them, each through its own front door (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"search_p50_us", "us", "lower", 0.25},
	{"search_p95_us", "us", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.25},
	{"recall_at_k", "fraction", "higher", 0.03},
	{"overall_ratio", "ratio", "lower", 0.002},
	{"add_p50_us", "us", "lower", 0.25},
	{"reopen_s", "s", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.05},
}

// perLayer lists the layer table of the traced run, one block per module. A
// metric a workload does not define reads 0 there.
var perLayer = []metricDef{
	{Name: "server.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.transport_us", Unit: "us", Better: "lower"},
	{Name: "server.frontdoor_us", Unit: "us", Better: "lower"},
	{Name: "server.frontdoor_frac", Unit: "fraction", Better: "lower"},
	{Name: "server.req_bytes", Unit: "B", Better: "lower"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.errors", Unit: "count", Better: "lower"},

	{Name: "dblsh.search_us", Unit: "us", Better: "lower"},
	{Name: "dblsh.search_p99_us", Unit: "us", Better: "lower"},
	{Name: "dblsh.api_self_us", Unit: "us", Better: "lower"},
	{Name: "dblsh.allocs_per_search", Unit: "count", Better: "lower"},
	{Name: "dblsh.bytes_per_search", Unit: "B", Better: "lower"},

	{Name: "shard.search_us", Unit: "us", Better: "lower"},
	{Name: "shard.coord_self_us", Unit: "us", Better: "lower"},
	{Name: "shard.fanout_delta_us", Unit: "us", Better: "lower"},
	{Name: "shard.parallel_rounds", Unit: "count", Better: "lower"},
	{Name: "shard.straggler_us", Unit: "us", Better: "lower"},
	{Name: "shard.add_us", Unit: "us", Better: "lower"},
	{Name: "shard.compactions", Unit: "count", Better: "higher"},
	{Name: "shard.deleted_left", Unit: "count", Better: "lower"},

	{Name: "core.kann_us", Unit: "us", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.budget_hit_frac", Unit: "fraction", Better: "lower"},
	{Name: "core.final_radius", Unit: "l2", Better: "lower"},
	{Name: "core.quant_swept", Unit: "count", Better: "higher"},
	{Name: "core.quant_pruned_frac", Unit: "fraction", Better: "higher"},
	{Name: "core.unattributed_us", Unit: "us", Better: "lower"},

	{Name: "rstar.nodes_visited", Unit: "count", Better: "lower"},
	{Name: "rstar.frontier_left", Unit: "count", Better: "higher"},
	{Name: "rstar.ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "rstar.traverse_us", Unit: "us", Better: "lower"},
	{Name: "rstar.traverse_frac", Unit: "fraction", Better: "lower"},
	{Name: "rstar.ids_per_node", Unit: "ratio", Better: "higher"},
	{Name: "rstar.build_s", Unit: "s", Better: "lower"},
	{Name: "rstar.insert_us", Unit: "us", Better: "lower"},
	{Name: "rstar.tree_height", Unit: "count", Better: "lower"},

	{Name: "lsh.project_us", Unit: "us", Better: "lower"},
	{Name: "lsh.project_build_s", Unit: "s", Better: "lower"},

	{Name: "vec.ns_per_cand_exact", Unit: "ns", Better: "lower"},
	{Name: "vec.ns_per_cand_quant", Unit: "ns", Better: "lower"},
	{Name: "vec.verify_us", Unit: "us", Better: "lower"},
	{Name: "vec.verify_frac", Unit: "fraction", Better: "lower"},
	{Name: "vec.bytes_per_cand", Unit: "B", Better: "lower"},

	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_add", Unit: "B", Better: "lower"},
	{Name: "wal.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "durable.add_self_us", Unit: "us", Better: "lower"},
	{Name: "durable.replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "durable.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "durable.checkpoint_bytes", Unit: "B", Better: "lower"},

	{Name: "scan.query_us", Unit: "us", Better: "lower"},
	{Name: "scan.speedup", Unit: "ratio", Better: "higher"},

	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// kind selects the system under test and the way load reaches it.
type kind int

const (
	inProcess kind = iota // dblsh.NewFromFlat, one searcher goroutine
	durable               // New→Save→Open, a searcher beside an open-loop writer
	overHTTP              // dblsh-server subprocess, keep-alive clients
)

// workload is one row of BENCHMARK.json's workloads list, sized.
type workload struct {
	Name string
	Why  string
	Kind kind
	Mix  mixture
	// N rows are indexed; Queries held-out vectors are searched for K
	// neighbours each in the quality pass, and the first Timed of them, pass
	// after pass, in the timed part.
	N, Queries, Timed, K int
	Shards               int
	// Adds is the number of held-out vectors added to every index the run
	// sets up (in-process and HTTP); the durable workload adds at WriteRate
	// beside the searches.
	Adds int
	// WriteRate is the open-loop writer's schedule in operations per second
	// (add, add, delete a random live vector).
	WriteRate int
	// CompactFraction is the shard tombstone share that triggers a background
	// rebuild; chosen so every shard compacts about twice in a run.
	CompactFraction float64
	// RecallFloor fails the run when recall_at_k falls below it: a fast
	// wrong answer is not a result.
	RecallFloor float64
}

var workloads = []workload{
	{
		Name: "overlap-128", Kind: inProcess, Mix: overlapMixture(128),
		N: 100_000, Queries: 1000, Timed: 500, K: 50, Shards: 1, Adds: 500, RecallFloor: 0.75,
		Why: "overlapping 100k x 128 mixture, k=50, 1 goroutine in-process: the 2tL+k budget binds and R*-tree traversal is most of a query; recall is below 1 so quality can move",
	},
	{
		Name: "overlap-960", Kind: inProcess, Mix: overlapMixture(960),
		N: 40_000, Queries: 1000, Timed: 500, K: 50, Shards: 1, Adds: 500, RecallFloor: 0.85,
		Why: "same ladder on 40k x 960 rows: the int8 pre-filter, the exact kernel and projection are at their largest share; a kernel change shows here and not on overlap-128",
	},
	{
		Name: "mixed-sharded", Kind: durable, Mix: clusteredMixture(128),
		N: 100_000, Queries: 1000, Timed: 500, K: 10, Shards: 4, WriteRate: 60, CompactFraction: 0.001, RecallFloor: 0.99,
		Why: "clustered 100k x 128 in a 4-shard SyncAlways store: closed-loop search beside 60 writes/s, compactions, WAL replay on reopen; a search gain that costs Add shows",
	},
	{
		Name: "clustered-http", Kind: overHTTP, Mix: clusteredMixture(128),
		N: 100_000, Queries: 1000, Timed: 500, K: 10, Shards: 1, Adds: 500, RecallFloor: 0.99,
		Why: "same clustered corpus behind dblsh-server, 1 keep-alive client POSTs /search: queries are easy so decode, admission, encode and loopback are most of a request",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
