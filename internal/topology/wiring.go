// Package topology models the multistage interconnection networks of
// the paper: N = k^n inputs connected to N outputs through n stages of
// k×k buffered crossbar switches (Fig. 1 of the paper is Lawrie's omega
// network, a member of the banyan family of Goke and Lipovski).
//
// A Wiring holds one such network as explicit routing tables. Rows
// (link indices) at each stage are numbered 0…N-1. Routing is
// digit-controlled: the switch at stage j forwards a message to the
// local output port named by the base-k digit of its destination that
// the stage consumes, and after the last stage the row equals the
// destination.
package topology

import (
	"fmt"
	"slices"
)

// Kind names a concrete inter-stage wiring pattern for a k-ary n-stage
// delta network. All three kinds below are full permutation networks:
// every input reaches every output through exactly one digit-controlled
// path, which WiringFor validates structurally and the permutation test
// battery checks exhaustively.
type Kind string

const (
	// Omega is Lawrie's omega network: a perfect k-shuffle before every
	// stage, next(r, d) = (k·r + d) mod N, consuming destination digits
	// most-significant-first. This is the wiring the stage-model
	// simulators assume, so it is the kind under the bit-identity
	// collapse contract.
	Omega Kind = "omega"
	// Butterfly is the indirect k-ary n-cube: stage j (1-based) replaces
	// base-k digit position n-j of the row index with the routing digit,
	// consuming destination digits most-significant-first.
	Butterfly Kind = "butterfly"
	// Flip is the inverse-shuffle (baseline/flip) network:
	// next(r, d) = r div k + d·k^(n-1), consuming destination digits
	// least-significant-first.
	Flip Kind = "flip"
)

// Kinds lists the supported wiring kinds.
func Kinds() []Kind { return []Kind{Omega, Butterfly, Flip} }

// ParseKind validates a wiring name ("" defaults to omega).
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", Omega:
		return Omega, nil
	case Butterfly:
		return Butterfly, nil
	case Flip:
		return Flip, nil
	}
	return "", fmt.Errorf("topology: unknown wiring kind %q (want omega, butterfly or flip)", s)
}

// Wiring is an explicit routing table for one k-ary n-stage delta
// network: for every stage, the output-queue row a message on row r
// joins when its routing digit is d, plus the grouping of output rows
// into physical k×k switches. The graph simulation engine walks these
// tables, and the permutation-routing analysis routes on them.
type Wiring struct {
	kind Kind
	k    int
	n    int
	size int
	// next[j][r*k+d] is the output row at stage j+1 (1-based j+1) for a
	// message entering that stage on row r with routing digit d.
	next [][]int32
	// swid[j][row] is the switch index owning output row `row` of stage
	// j+1. Derived from next: the k rows reachable from one input row
	// belong to one physical switch.
	swid [][]int32
	// digitDiv[j] extracts stage j+1's routing digit:
	// digit = (dest / digitDiv[j]) % k.
	digitDiv []uint32
}

// WiringFor builds the routing tables of the given kind for a k-ary
// n-stage network and validates their structure: at every stage the k
// rows reachable from each input row must be distinct and the reachable
// sets must partition the rows — i.e. the stage is a legal bank of k×k
// switches. k must be at least 2, n at least 1, and k^n at most 2^40.
func WiringFor(kind Kind, k, n int) (*Wiring, error) {
	kind, err := ParseKind(string(kind))
	if err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("topology: switch radix k = %d must be at least 2", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: stage count n = %d must be at least 1", n)
	}
	size := 1
	for i := 0; i < n; i++ {
		if size > (1<<40)/k {
			return nil, fmt.Errorf("topology: network k=%d n=%d too large", k, n)
		}
		size *= k
	}
	w := &Wiring{kind: kind, k: k, n: n, size: size}
	w.next = make([][]int32, n)
	w.digitDiv = make([]uint32, n)
	for j := 0; j < n; j++ {
		tbl := make([]int32, size*k)
		for r := 0; r < size; r++ {
			for d := 0; d < k; d++ {
				tbl[r*k+d] = int32(w.rawNext(j, r, d))
			}
		}
		w.next[j] = tbl
		if kind == Flip {
			// Flip consumes destination digits least-significant-first.
			w.digitDiv[j] = pow32(k, j)
		} else {
			w.digitDiv[j] = pow32(k, n-1-j)
		}
	}
	if err := w.deriveSwitches(); err != nil {
		return nil, err
	}
	return w, nil
}

// rawNext is the closed-form wiring rule, used only to fill the tables.
func (w *Wiring) rawNext(j, r, d int) int {
	switch w.kind {
	case Butterfly:
		// Replace base-k digit position n-1-j of r with d.
		p := 1
		for i := 0; i < w.n-1-j; i++ {
			p *= w.k
		}
		return r - ((r/p)%w.k)*p + d*p
	case Flip:
		return r/w.k + d*(w.size/w.k)
	default: // Omega
		return (w.k*r + d) % w.size
	}
}

func pow32(k, e int) uint32 {
	v := 1
	for i := 0; i < e; i++ {
		v *= k
	}
	return uint32(v)
}

// deriveSwitches groups each stage's output rows into k×k switches from
// the next tables alone: the k rows reachable from input row r form the
// output side of one switch. Any violation (duplicate edge, sets that
// overlap without coinciding, uncovered rows) is a structural error.
//
// A reachable set that was seen before is recognized by its rows alone:
// they all already carry one switch id, and since every id is assigned
// to exactly k distinct rows, k rows sharing it are that switch's set.
func (w *Wiring) deriveSwitches() error {
	w.swid = make([][]int32, w.n)
	set := make([]int32, w.k)
	for j := 0; j < w.n; j++ {
		ids := make([]int32, w.size)
		for i := range ids {
			ids[i] = -1
		}
		var nsw int32
		for r := 0; r < w.size; r++ {
			copy(set, w.next[j][r*w.k:(r+1)*w.k])
			slices.Sort(set)
			for i := 1; i < w.k; i++ {
				if set[i] == set[i-1] {
					return fmt.Errorf("topology: %s k=%d n=%d stage %d: duplicate edge from row %d to row %d",
						w.kind, w.k, w.n, j+1, r, set[i])
				}
			}
			seen := ids[set[0]] != -1
			for _, row := range set[1:] {
				seen = seen && ids[row] == ids[set[0]]
			}
			if !seen {
				id := nsw
				nsw++
				for _, row := range set {
					if ids[row] != -1 {
						return fmt.Errorf("topology: %s k=%d n=%d stage %d: row %d reachable from two different switches",
							w.kind, w.k, w.n, j+1, row)
					}
					ids[row] = id
				}
			}
		}
		if int(nsw) != w.size/w.k {
			return fmt.Errorf("topology: %s k=%d n=%d stage %d: %d switches, want %d",
				w.kind, w.k, w.n, j+1, nsw, w.size/w.k)
		}
		w.swid[j] = ids
	}
	return nil
}

// Kind returns the wiring kind.
func (w *Wiring) Kind() Kind { return w.kind }

// Radix returns k.
func (w *Wiring) Radix() int { return w.k }

// Stages returns n.
func (w *Wiring) Stages() int { return w.n }

// Size returns the number of rows per stage, k^n.
func (w *Wiring) Size() int { return w.size }

// SwitchesPerStage returns k^n / k.
func (w *Wiring) SwitchesPerStage() int { return w.size / w.k }

// Digit returns the routing digit of dest consumed at stage (1-based).
func (w *Wiring) Digit(dest, stage int) int {
	return int(uint32(dest)/w.digitDiv[stage-1]) % w.k
}

// DigitDiv returns the divisor extracting stage's routing digit
// (1-based): digit = (dest / DigitDiv(stage)) % k.
func (w *Wiring) DigitDiv(stage int) uint32 { return w.digitDiv[stage-1] }

// Next returns the output row a message entering stage (1-based) on row
// r joins when routed with digit d.
func (w *Wiring) Next(stage, r, d int) int {
	if d < 0 || d >= w.k {
		panic(fmt.Sprintf("topology: digit %d out of 0..%d", d, w.k-1))
	}
	return int(w.next[stage-1][r*w.k+d])
}

// NextTable returns stage's flattened routing table (1-based stage),
// indexed [r*k+d]. The returned slice is shared, not a copy.
func (w *Wiring) NextTable(stage int) []int32 { return w.next[stage-1] }

// SwitchOf returns the switch index owning output row r of stage
// (1-based).
func (w *Wiring) SwitchOf(stage, r int) int { return int(w.swid[stage-1][r]) }

// SwitchTable returns stage's row→switch table (1-based stage). The
// returned slice is shared, not a copy.
func (w *Wiring) SwitchTable(stage int) []int32 { return w.swid[stage-1] }

// Route returns the output rows visited routing src → dest, one per
// stage.
func (w *Wiring) Route(src, dest int) []int {
	if src < 0 || src >= w.size || dest < 0 || dest >= w.size {
		panic(fmt.Sprintf("topology: route %d → %d out of 0..%d", src, dest, w.size-1))
	}
	rows := make([]int, w.n)
	r := src
	for stage := 1; stage <= w.n; stage++ {
		r = w.Next(stage, r, w.Digit(dest, stage))
		rows[stage-1] = r
	}
	return rows
}

// RelabelStage returns a copy of the wiring with the output rows of
// stage (1-based) renamed through perm: row r becomes perm[r]. Both the
// stage's own routing table and the next stage's input side are
// rewritten, so the relabeled network is isomorphic to the original —
// the metamorphic switch-relabeling suite relies on it. The last stage
// cannot be relabeled (its output rows are the network's external
// outputs, so renaming them would change where messages exit).
func (w *Wiring) RelabelStage(stage int, perm []int) (*Wiring, error) {
	if stage < 1 || stage >= w.n {
		return nil, fmt.Errorf("topology: relabel stage %d out of 1..%d (the last stage's rows are the external outputs)", stage, w.n-1)
	}
	if len(perm) != w.size {
		return nil, fmt.Errorf("topology: relabel perm has %d entries, want %d", len(perm), w.size)
	}
	seen := make([]bool, w.size)
	for _, v := range perm {
		if v < 0 || v >= w.size || seen[v] {
			return nil, fmt.Errorf("topology: relabel perm is not a permutation of 0..%d", w.size-1)
		}
		seen[v] = true
	}
	nw := &Wiring{kind: w.kind, k: w.k, n: w.n, size: w.size}
	nw.digitDiv = append([]uint32(nil), w.digitDiv...)
	nw.next = make([][]int32, w.n)
	for j := range w.next {
		nw.next[j] = append([]int32(nil), w.next[j]...)
	}
	j := stage - 1
	// Outputs of stage j are renamed…
	for i := range nw.next[j] {
		nw.next[j][i] = int32(perm[w.next[j][i]])
	}
	// …and the next stage reads its input rows under the new names.
	old := w.next[j+1]
	for r := 0; r < w.size; r++ {
		copy(nw.next[j+1][perm[r]*w.k:(perm[r]+1)*w.k], old[r*w.k:(r+1)*w.k])
	}
	if err := nw.deriveSwitches(); err != nil {
		return nil, err
	}
	return nw, nil
}

// PermutationError reports one way a wiring fails to be a full
// permutation network, with the full digit-routed path as evidence.
type PermutationError struct {
	Kind      Kind
	K, N      int
	Src, Dest int
	Path      []int // output rows visited, one per stage
}

func (e *PermutationError) Error() string {
	return fmt.Sprintf("topology: %s k=%d n=%d: input %d routed to %d, not %d (path %v)",
		e.Kind, e.K, e.N, e.Src, e.Path[len(e.Path)-1], e.Dest, e.Path)
}

// CheckPermutation verifies the full-permutation-network property by
// exhaustive digit routing: every input must reach every output, and
// arrive exactly there. Structural soundness (no duplicate edges, k×k
// switch partition at every stage) is already enforced at construction;
// this adds the end-to-end reachability half. O(N²·n) — test-sized
// networks only.
func (w *Wiring) CheckPermutation() error {
	for src := 0; src < w.size; src++ {
		for dest := 0; dest < w.size; dest++ {
			path := w.Route(src, dest)
			if path[w.n-1] != dest {
				return &PermutationError{Kind: w.kind, K: w.k, N: w.n, Src: src, Dest: dest, Path: path}
			}
		}
	}
	return nil
}
