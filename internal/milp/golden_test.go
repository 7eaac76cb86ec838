package milp

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spq/internal/rng"
)

// goldenRow is the recorded outcome of one solve: everything the search's
// path determines, compared bit-for-bit.
type goldenRow struct {
	tag     string
	status  Status
	objBits uint64
	nodes   int
	lpIters int
	xHash   uint64
}

// hashX fingerprints a solution vector by the exact bits of every element
// (0 for a nil X).
func hashX(x []float64) uint64 {
	if x == nil {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenInstance is one solve of the golden table.
type goldenInstance struct {
	tag   string
	model *Model
	opts  *Options
}

// goldenCorpus is the property corpus plus instances that stress the
// frontier: a larger knapsack, a chain whose search dives one level per
// binary, and a gap-limited and a node-limited knapsack (a node budget cuts
// a round partway).
func goldenCorpus() []goldenInstance {
	var out []goldenInstance
	for i, m := range propertyCorpus() {
		out = append(out, goldenInstance{tag: fmt.Sprintf("corpus%d", i), model: m})
	}
	s := rng.NewStream(5)
	out = append(out, goldenInstance{tag: "knap26", model: knapsackModel(s, 26, 13)})
	const n = 300
	chain := NewModel()
	idxs := make([]int, n)
	ones := make([]float64, n)
	for j := 0; j < n; j++ {
		idxs[j] = chain.AddBinary(-1, "x")
		ones[j] = 1
	}
	chain.AddRow(idxs, ones, -Inf, float64(n)-0.5)
	out = append(out, goldenInstance{tag: "chain300", model: chain})
	s = rng.NewStream(9)
	out = append(out,
		goldenInstance{tag: "knap22gap", model: knapsackModel(s, 22, 11), opts: &Options{RelGap: 0.02}},
		goldenInstance{tag: "knap24nodes", model: knapsackModel(s, 24, 12), opts: &Options{MaxNodes: 1500}},
	)
	return out
}

// TestGoldenSearchPath pins the search to the path recorded before the
// allocation-free node path landed: Status, objective bits, node count, LP
// iterations and an X fingerprint for every instance, at 1 and 2 workers.
// The determinism matrix only proves worker-count invariance; this proves
// "same search as before". A kernel change that is meant to alter the path
// (a new pricing rule, a different branching order) must re-record the table
// and say so.
func TestGoldenSearchPath(t *testing.T) {
	corpus := goldenCorpus()
	if len(corpus) != len(goldenSearch) {
		t.Fatalf("corpus has %d instances, golden table %d", len(corpus), len(goldenSearch))
	}
	for _, workers := range []int{1, 2} {
		for i, inst := range corpus {
			res := solveWith(t, inst.model, workers, inst.opts)
			got := goldenRow{inst.tag, res.Status, math.Float64bits(res.Obj), res.Nodes, res.LPIters, hashX(res.X)}
			if got != goldenSearch[i] {
				t.Errorf("workers=%d: got  %#v\n\twant %#v", workers, got, goldenSearch[i])
			}
		}
	}
}

// goldenSearch was recorded from the search before per-worker solver state
// and lazy basis snapshots; see TestGoldenSearchPath.
var goldenSearch = []goldenRow{
	{"corpus0", StatusOptimal, 0xc008000000000000, 3, 4, 0x69454bc43ef632b8},
	{"corpus1", StatusOptimal, 0xc000000000000000, 1, 2, 0x1ad3c89432992f25},
	{"corpus2", StatusOptimal, 0x0, 1, 0, 0x88201fb960ff6465},
	{"corpus3", StatusOptimal, 0xbffb333333333334, 5, 7, 0xbd6557a2ec0d4a45},
	{"corpus4", StatusOptimal, 0xc016666666666666, 1, 1, 0xc2530e9383989265},
	{"corpus5", StatusOptimal, 0xbff6666666666666, 7, 7, 0x5e51083c28998bb8},
	{"corpus6", StatusOptimal, 0xc010cccccccccccd, 1, 0, 0x9ce865f8aa561725},
	{"corpus7", StatusOptimal, 0xc01f333333333333, 1, 2, 0x37a37df2364a2c85},
	{"corpus8", StatusOptimal, 0xc00f333333333333, 5, 5, 0x344d4cd4f72705f8},
	{"corpus9", StatusOptimal, 0xc01e666666666666, 1, 0, 0x62b5371e87bc7c65},
	{"corpus10", StatusOptimal, 0xc01cccccccccccce, 5, 7, 0x5d0da68d0f8bce45},
	{"corpus11", StatusOptimal, 0x0, 1, 0, 0x81d23fd7003c2305},
	{"corpus12", StatusOptimal, 0xc004cccccccccccd, 9, 10, 0xc2530e9383989265},
	{"corpus13", StatusOptimal, 0x0, 1, 0, 0x88201fb960ff6465},
	{"corpus14", StatusOptimal, 0x0, 1, 0, 0x81d23fd7003c2305},
	{"corpus15", StatusOptimal, 0xc003333333333333, 11, 13, 0x5f673ae75f942905},
	{"corpus16", StatusOptimal, 0xc006666666666666, 5, 5, 0x60e40be760d7de38},
	{"corpus17", StatusOptimal, 0xc017333333333333, 1, 0, 0x88205fb960ffd125},
	{"corpus18", StatusOptimal, 0xc024cccccccccccd, 1, 0, 0x5d0de68d0f8c3b05},
	{"corpus19", StatusOptimal, 0x0, 5, 4, 0x81d23fd7003c2305},
	{"corpus20", StatusOptimal, 0xc014cccccccccccd, 1, 1, 0x62b5771e87bce925},
	{"corpus21", StatusOptimal, 0x0, 1, 0, 0x81d23fd7003c2305},
	{"corpus22", StatusOptimal, 0xbfd999999999999a, 1, 0, 0x8208b0d7006a7278},
	{"corpus23", StatusOptimal, 0xbff0000000000000, 1, 0, 0x62b5771e87bce925},
	{"corpus24", StatusOptimal, 0xc00d99999999999a, 5, 5, 0x6212281e87320198},
	{"corpus25", StatusOptimal, 0xc003d0a8e0a4f364, 1, 10, 0x417a179d0c784d58},
	{"corpus26", StatusInfeasible, 0x0, 0, 0, 0x0},
	{"corpus27", StatusOptimal, 0xc001e2872106bbde, 1, 7, 0x16f07aebbc0cccd8},
	{"corpus28", StatusOptimal, 0xc004fa30fbadb0d1, 1, 0, 0x83fec4c3fa2c1905},
	{"corpus29", StatusOptimal, 0xc0123b05aa21a70b, 15, 26, 0x273cfc384d6e6938},
	{"corpus30", StatusOptimal, 0xc00f70c8922dd676, 5, 11, 0x132eca11548931c5},
	{"corpus31", StatusOptimal, 0xc00a3308a3757b0a, 1, 5, 0xc6587b7a137c3b98},
	{"corpus32", StatusOptimal, 0xc00149a0844d3319, 1, 11, 0x2b2a817d2b4f00f8},
	{"corpus33", StatusOptimal, 0xc0068623f7f2b4ff, 11, 29, 0x615c9c3a6b131725},
	{"corpus34", StatusInfeasible, 0x0, 0, 0, 0x0},
	{"corpus35", StatusOptimal, 0xc00924121b841ad0, 27, 36, 0xdff278937836da85},
	{"corpus36", StatusInfeasible, 0x0, 0, 0, 0x0},
	{"corpus37", StatusOptimal, 0xc00e1dc624dba221, 1, 6, 0x16f07aebbc0cccd8},
	{"corpus38", StatusOptimal, 0xc0094dee16846304, 5, 11, 0x7c0e37aabfcd35c5},
	{"corpus39", StatusOptimal, 0xc0035e52ff1ea7dc, 13, 31, 0x9c80972827d06005},
	{"corpus40", StatusOptimal, 0xc0228e3344a7289b, 1167, 1092, 0x1896f9ea8ffcf618},
	{"corpus41", StatusOptimal, 0xc021fdfe2cfe3c44, 1033, 979, 0x7f4f976573f71898},
	{"knap26", StatusOptimal, 0xc02bd01c143f7a94, 105, 176, 0x4f34f31ed45a2d85},
	{"chain300", StatusOptimal, 0xc072b00000000000, 601, 899, 0xf484787c8c05c4d8},
	{"knap22gap", StatusOptimal, 0xc0297c181963d292, 1681, 1706, 0xbd0438cea2d53ca5},
	{"knap24nodes", StatusFeasible, 0xc024eba68bc2e419, 1500, 1332, 0x88e34381549d4d98},
}
