package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"spq/client"
	"spq/internal/relation"
)

// answer is one query answer in canonical form: the verdict, the objective's
// exact bits, and the package as base-relation tuples with multiplicities.
type answer struct {
	feasible  bool
	objective float64
	pkg       []client.PackageTuple
}

// sortedPackage lists a package's base-relation tuples in ascending order,
// dropping tuples of multiplicity zero.
func sortedPackage(mult map[int]int) []client.PackageTuple {
	out := make([]client.PackageTuple, 0, len(mult))
	for t, c := range mult {
		if c > 0 {
			out = append(out, client.PackageTuple{Tuple: t, Count: c})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tuple < out[b].Tuple })
	return out
}

// hash is a stable digest of the answer.
func (a answer) hash() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if a.feasible {
		put(1)
	} else {
		put(0)
	}
	put(math.Float64bits(a.objective))
	for _, t := range a.pkg {
		if t.Count == 0 {
			continue
		}
		put(uint64(t.Tuple))
		put(uint64(t.Count))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// detCheck verifies a package against the query's deterministic constraints,
// recomputed from the relation rather than trusted from the solver.
type detCheck func(rel *relation.Relation, pkg []client.PackageTuple) error

// priceAtMost checks SUM(price) <= limit (the Portfolio queries).
func priceAtMost(limit float64) detCheck {
	return func(rel *relation.Relation, pkg []client.PackageTuple) error {
		price, err := rel.Det("price")
		if err != nil {
			return err
		}
		sum := 0.0
		for _, t := range pkg {
			if t.Tuple < 0 || t.Tuple >= len(price) {
				return fmt.Errorf("package tuple %d outside the relation", t.Tuple)
			}
			sum += float64(t.Count) * price[t.Tuple]
		}
		if sum > limit*(1+1e-9) {
			return fmt.Errorf("SUM(price) = %.9g exceeds %g", sum, limit)
		}
		return nil
	}
}

// countBetween checks COUNT(*) BETWEEN lo AND hi (the Galaxy queries).
func countBetween(lo, hi int) detCheck {
	return func(rel *relation.Relation, pkg []client.PackageTuple) error {
		n := 0
		for _, t := range pkg {
			if t.Tuple < 0 || t.Tuple >= rel.N() {
				return fmt.Errorf("package tuple %d outside the relation", t.Tuple)
			}
			n += t.Count
		}
		if n < lo || n > hi {
			return fmt.Errorf("COUNT(*) = %d outside [%d, %d]", n, lo, hi)
		}
		return nil
	}
}

// answerBook records the answer given to each distinct request. Answers are
// a pure function of the request (the engine is deterministic per seed and
// the data never changes value), so a request answered twice differently —
// within the run, or against an earlier run of the same source tree kept on
// disk — is a wrong answer.
type answerBook struct {
	mu    sync.Mutex
	path  string            // "" disables the on-disk record
	prior map[string]string // request → answer hash, from earlier runs
	seen  map[string]string // request → answer hash, this run
}

// openBook loads the record at path, if any.
func openBook(path string) (*answerBook, error) {
	b := &answerBook{path: path, prior: map[string]string{}, seen: map[string]string{}}
	if path == "" {
		return b, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return b, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read answer record: %w", err)
	}
	if err := json.Unmarshal(data, &b.prior); err != nil {
		return nil, fmt.Errorf("parse answer record %s: %w", path, err)
	}
	return b, nil
}

// record notes the answer to one request and reports a disagreement with any
// earlier answer to it.
func (b *answerBook) record(req, hash string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if h, ok := b.seen[req]; ok && h != hash {
		return fmt.Errorf("request %s answered %s, earlier in this run %s", req, hash, h)
	}
	if h, ok := b.prior[req]; ok && h != hash {
		return fmt.Errorf("request %s answered %s, an earlier run answered %s", req, hash, h)
	}
	b.seen[req] = hash
	return nil
}

// digest hashes every request's answer in request order.
func (b *answerBook) digest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.seen))
	for k := range b.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, b.seen[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// size is the number of distinct requests answered.
func (b *answerBook) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen)
}

// save merges this run's answers into the on-disk record.
func (b *answerBook) save() error {
	if b.path == "" {
		return nil
	}
	b.mu.Lock()
	all := make(map[string]string, len(b.prior)+len(b.seen))
	for k, v := range b.prior {
		all[k] = v
	}
	for k, v := range b.seen {
		all[k] = v
	}
	b.mu.Unlock()
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(b.path), 0o755); err != nil {
		return err
	}
	tmp := b.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, b.path)
}
