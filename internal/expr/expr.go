// Package expr models REMI's language of referring expressions (Section 2.2
// and Table 1 of the paper): subgraph expressions rooted at a variable x in
// one of five shapes, and expressions (conjunctions of subgraph expressions
// sharing only x). It also provides their evaluation against a KB; the
// caching of query results of Section 3.5.2 is the miner's per-run memo
// (internal/core).
package expr

import (
	"fmt"
	"slices"
	"strings"

	"github.com/remi-kb/remi/internal/kb"
)

// Shape enumerates REMI's subgraph-expression shapes (Table 1).
type Shape uint8

const (
	// Atom1 is p0(x, I0).
	Atom1 Shape = iota
	// Path is p0(x,y) ∧ p1(y, I1).
	Path
	// PathStar is p0(x,y) ∧ p1(y, I1) ∧ p2(y, I2).
	PathStar
	// Closed2 is p0(x,y) ∧ p1(x,y).
	Closed2
	// Closed3 is p0(x,y) ∧ p1(x,y) ∧ p2(x,y).
	Closed3
)

// String returns the table-1 name of the shape.
func (s Shape) String() string {
	switch s {
	case Atom1:
		return "1 atom"
	case Path:
		return "path"
	case PathStar:
		return "path + star"
	case Closed2:
		return "2 closed atoms"
	case Closed3:
		return "3 closed atoms"
	default:
		return fmt.Sprintf("shape(%d)", uint8(s))
	}
}

// Atoms returns the number of atoms of the shape.
func (s Shape) Atoms() int {
	switch s {
	case Atom1:
		return 1
	case Path, Closed2:
		return 2
	default:
		return 3
	}
}

// ExtraVariables returns the number of existentially quantified variables
// besides the root x (0 for single atoms, 1 otherwise — REMI's language bias
// allows at most one, Section 3.2).
func (s Shape) ExtraVariables() int {
	if s == Atom1 {
		return 0
	}
	return 1
}

// Subgraph is one subgraph expression. Only the fields used by its shape are
// meaningful:
//
//	Atom1:    P0, I0
//	Path:     P0, P1, I1
//	PathStar: P0, P1, I1, P2, I2   with (P1,I1) < (P2,I2)
//	Closed2:  P0, P1               with P0 < P1
//	Closed3:  P0, P1, P2           with P0 < P1 < P2
//
// Subgraph is comparable and canonical, so it can key maps directly.
type Subgraph struct {
	Shape      Shape
	P0, P1, P2 kb.PredID
	I0, I1, I2 kb.EntID
}

// NewAtom1 builds p0(x, I0).
func NewAtom1(p0 kb.PredID, i0 kb.EntID) Subgraph {
	return Subgraph{Shape: Atom1, P0: p0, I0: i0}
}

// NewPath builds p0(x,y) ∧ p1(y, I1).
func NewPath(p0, p1 kb.PredID, i1 kb.EntID) Subgraph {
	return Subgraph{Shape: Path, P0: p0, P1: p1, I1: i1}
}

// NewPathStar builds p0(x,y) ∧ p1(y,I1) ∧ p2(y,I2), normalizing the order of
// the two star atoms.
func NewPathStar(p0, p1 kb.PredID, i1 kb.EntID, p2 kb.PredID, i2 kb.EntID) Subgraph {
	if p2 < p1 || (p2 == p1 && i2 < i1) {
		p1, i1, p2, i2 = p2, i2, p1, i1
	}
	return Subgraph{Shape: PathStar, P0: p0, P1: p1, I1: i1, P2: p2, I2: i2}
}

// NewClosed2 builds p0(x,y) ∧ p1(x,y), normalizing predicate order.
func NewClosed2(p0, p1 kb.PredID) Subgraph {
	if p1 < p0 {
		p0, p1 = p1, p0
	}
	return Subgraph{Shape: Closed2, P0: p0, P1: p1}
}

// NewClosed3 builds p0(x,y) ∧ p1(x,y) ∧ p2(x,y), normalizing predicate order.
func NewClosed3(p0, p1, p2 kb.PredID) Subgraph {
	if p1 < p0 {
		p0, p1 = p1, p0
	}
	if p2 < p1 {
		p1, p2 = p2, p1
	}
	if p1 < p0 {
		p0, p1 = p1, p0
	}
	return Subgraph{Shape: Closed3, P0: p0, P1: p1, P2: p2}
}

// Atoms returns the number of atoms in the subgraph expression.
func (g Subgraph) Atoms() int { return g.Shape.Atoms() }

// Hash returns a well-mixed 64-bit hash of the subgraph expression, for the
// enumerator's dedup set, which keys on Subgraph. It is much cheaper
// than the runtime's generic struct hashing on this hot a path: the three
// packed field words are combined with distinct odd multipliers, then one
// xor-shift-multiply finalizer spreads them — enough mixing for power-of-2
// tables with linear probing.
func (g Subgraph) Hash() uint64 {
	h1 := uint64(g.P0) | uint64(g.I0)<<32
	h2 := uint64(g.P1) | uint64(g.I1)<<32
	h3 := uint64(g.P2) | uint64(g.I2)<<32 | uint64(g.Shape)<<24
	h := h1 ^ h2*0x9e3779b97f4a7c15 ^ h3*0xc2b2ae3d27d4eb4f
	h ^= h >> 32
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Format renders the subgraph expression with names resolved against k.
func (g Subgraph) Format(k *kb.KB) string {
	pn := func(p kb.PredID) string { return shortPred(k.PredicateName(p)) }
	en := func(e kb.EntID) string { return k.Term(e).LocalName() }
	switch g.Shape {
	case Atom1:
		return fmt.Sprintf("%s(x, %s)", pn(g.P0), en(g.I0))
	case Path:
		return fmt.Sprintf("%s(x, y) ∧ %s(y, %s)", pn(g.P0), pn(g.P1), en(g.I1))
	case PathStar:
		return fmt.Sprintf("%s(x, y) ∧ %s(y, %s) ∧ %s(y, %s)", pn(g.P0), pn(g.P1), en(g.I1), pn(g.P2), en(g.I2))
	case Closed2:
		return fmt.Sprintf("%s(x, y) ∧ %s(x, y)", pn(g.P0), pn(g.P1))
	case Closed3:
		return fmt.Sprintf("%s(x, y) ∧ %s(x, y) ∧ %s(x, y)", pn(g.P0), pn(g.P1), pn(g.P2))
	default:
		return fmt.Sprintf("subgraph(%v)", g)
	}
}

func shortPred(name string) string {
	inv := strings.HasSuffix(name, kb.InverseMarker)
	base := strings.TrimSuffix(name, kb.InverseMarker)
	t := base
	if i := strings.LastIndexAny(t, "#/"); i >= 0 && i+1 < len(t) {
		t = t[i+1:]
	}
	if inv {
		t += kb.InverseMarker
	}
	return t
}

// Expression is a conjunction of subgraph expressions rooted at the same
// variable x (Section 2.2.2). The slice order is the DFS stack order.
type Expression []Subgraph

// Format renders the expression with names resolved against k.
func (e Expression) Format(k *kb.KB) string {
	if len(e) == 0 {
		return "⊤"
	}
	parts := make([]string, len(e))
	for i, g := range e {
		parts[i] = g.Format(k)
	}
	return strings.Join(parts, " ∧ ")
}

// Atoms returns the total atom count of the expression.
func (e Expression) Atoms() int {
	n := 0
	for _, g := range e {
		n += g.Atoms()
	}
	return n
}

// Clone returns an independent copy of the expression.
func (e Expression) Clone() Expression {
	return append(Expression(nil), e...)
}

// Less orders subgraph expressions deterministically on canonical fields.
func Less(a, b Subgraph) bool {
	if a.Shape != b.Shape {
		return a.Shape < b.Shape
	}
	if a.P0 != b.P0 {
		return a.P0 < b.P0
	}
	if a.I0 != b.I0 {
		return a.I0 < b.I0
	}
	if a.P1 != b.P1 {
		return a.P1 < b.P1
	}
	if a.I1 != b.I1 {
		return a.I1 < b.I1
	}
	if a.P2 != b.P2 {
		return a.P2 < b.P2
	}
	return a.I2 < b.I2
}

// Compare orders subgraph expressions deterministically (the total order of
// Less as a three-way comparison, usable with slices.SortFunc).
func Compare(a, b Subgraph) int {
	switch {
	case Less(a, b):
		return -1
	case Less(b, a):
		return 1
	default:
		return 0
	}
}

// Key returns an order-insensitive canonical identifier for the expression:
// two expressions with the same set of subgraph expressions share a key.
func (e Expression) Key() string {
	sorted := e
	if len(e) > 1 && !slices.IsSortedFunc(e, Compare) {
		sorted = e.Clone()
		slices.SortFunc(sorted, Compare)
	}
	buf := make([]byte, 0, len(sorted)*28)
	for _, g := range sorted {
		buf = appendU32(buf, uint32(g.Shape))
		buf = appendU32(buf, uint32(g.P0))
		buf = appendU32(buf, uint32(g.P1))
		buf = appendU32(buf, uint32(g.P2))
		buf = appendU32(buf, uint32(g.I0))
		buf = appendU32(buf, uint32(g.I1))
		buf = appendU32(buf, uint32(g.I2))
	}
	return string(buf)
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
