package relation

import (
	"fmt"
	"testing"

	"spq/internal/dist"
	"spq/internal/rng"
)

// TestVGValueAllocationFree asserts that realizing one value with a reused
// scratch stream allocates nothing, for every VG shape the engine realizes:
// a per-tuple IndependentVG mixing Normal and Shifted-Pareto noise, a
// GroupedVG, and the remappedVG wrappers a delete leaves behind in a
// snapshot. It also covers the resolved Attr handle the hot loops call.
func TestVGValueAllocationFree(t *testing.T) {
	const n = 16
	rel := New("r", n)
	dists := make([]dist.Dist, n)
	group := make([]int, n)
	for i := range dists {
		if i%2 == 0 {
			dists[i] = dist.Normal{Mu: float64(i), Sigma: 2}
		} else {
			dists[i] = dist.Shifted{Off: float64(i), D: dist.Pareto{Sigma: 1, Alpha: 1}}
		}
		group[i] = i / 4
	}
	if err := rel.AddStoch("noise", &IndependentVG{AttrID: 1, Dists: dists}); err != nil {
		t.Fatal(err)
	}
	if err := rel.AddStoch("path", &GroupedVG{AttrID: 2, Group: group, Eval: func(st *rng.Stream, tuple int) float64 {
		v := 0.0
		for k := 0; k <= tuple%4; k++ {
			v += st.Norm()
		}
		return v
	}}); err != nil {
		t.Fatal(err)
	}
	pre := rel.Snapshot()
	if _, err := rel.ApplyDelta(&Delta{Delete: []int{1, 6}}); err != nil {
		t.Fatal(err)
	}
	post := rel.Snapshot()
	for k, want := range []string{"*relation.IndependentVG", "*relation.GroupedVG"} {
		if got := fmt.Sprintf("%T", pre.stochs[k].vg); got != want {
			t.Fatalf("pre-delete VG %d is %s, want %s", k, got, want)
		}
		if _, ok := post.stochs[k].vg.(*remappedVG); !ok {
			t.Fatalf("post-delete VG %d is %T, want *remappedVG", k, post.stochs[k].vg)
		}
	}
	src := rng.NewSource(3)
	st := new(rng.Stream)
	for _, r := range []*Relation{pre, post} {
		for _, name := range []string{"noise", "path"} {
			vg, err := r.VG(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := r.Attr(name)
			if err != nil {
				t.Fatal(err)
			}
			tuple, scen := 0, 0
			allocs := testing.AllocsPerRun(200, func() {
				tuple = (tuple + 1) % r.N()
				scen++
				_ = vg.Value(st, src, tuple, scen)
				if _, err := a.Value(st, src, tuple, scen); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %T: %v allocations per realized value, want 0", name, vg, allocs)
			}
		}
	}
}
