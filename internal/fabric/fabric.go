// Package fabric models the ion-trap quantum circuit fabric of the
// QSPR paper (§II.B, Fig. 4): a cell grid of junctions (J), channels
// (C) and traps (T).
//
//   - Qubits are ions; they rest inside traps and travel through
//     channels, turning at junctions.
//   - A junction or a trap occupies one cell; a channel occupies one
//     or more cells aligned in a line.
//   - Traps hang off channels; a qubit enters or leaves a trap
//     perpendicular to the channel (which costs a turn).
//
// The package offers a parametric fabric generator (including a 45×85
// fabric equivalent to the QUALE release shown in Fig. 4), an ASCII
// renderer, a parser for the rendered form, and the derived
// channel/junction/trap topology the router builds its graph from.
package fabric

import "fmt"

// CellKind classifies one grid cell.
type CellKind uint8

// Cell kinds. The zero value is Empty (white space in Fig. 4).
const (
	Empty CellKind = iota
	Junction
	Channel
	Trap
)

// String returns the single-letter Fig. 4 legend for the cell kind.
func (k CellKind) String() string {
	switch k {
	case Empty:
		return "."
	case Junction:
		return "J"
	case Channel:
		return "C"
	case Trap:
		return "T"
	}
	return "?"
}

// Pos is a cell coordinate (row, column), row 0 at the top.
type Pos struct {
	Row, Col int
}

// ManhattanDist returns the L1 distance between two positions.
func ManhattanDist(a, b Pos) int {
	return abs(a.Row-b.Row) + abs(a.Col-b.Col)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Orientation distinguishes horizontal from vertical channels.
type Orientation uint8

// Channel orientations.
const (
	Horizontal Orientation = iota
	Vertical
)

// String names the orientation.
func (o Orientation) String() string {
	if o == Horizontal {
		return "horizontal"
	}
	return "vertical"
}

// JunctionInfo is one junction cell of the fabric.
type JunctionInfo struct {
	ID  int
	Pos Pos
}

// ChannelInfo is one maximal straight channel between two junctions.
type ChannelInfo struct {
	ID          int
	Orientation Orientation
	// J1, J2 are the junction IDs at the two ends; J1 is the
	// top/left end.
	J1, J2 int
	// Length is the number of channel cells between the junctions;
	// traversing the channel costs Length moves.
	Length int
	// Cells are the channel's cells ordered from J1 to J2.
	Cells []Pos
	// Traps lists the IDs of traps attached to this channel.
	Traps []int
}

// TrapInfo is one trap cell and its channel attachment.
type TrapInfo struct {
	ID  int
	Pos Pos
	// Channel is the ID of the channel the trap hangs off.
	Channel int
	// Offset is the index (0-based) of the attachment cell within
	// the channel's Cells, i.e. the distance in moves from junction
	// J1's side: reaching the attachment cell from J1 costs Offset+1
	// moves.
	Offset int
}

// Fabric is an ion-trap circuit fabric: the raw cell grid plus the
// derived routing topology.
type Fabric struct {
	Rows, Cols int

	cells []CellKind

	Junctions []JunctionInfo
	Channels  []ChannelInfo
	// Traps is indexed by trap ID and numbered in row-major cell
	// order (by row, then column), which NearestTrap's per-row binary
	// search relies on; Validate checks it.
	Traps []TrapInfo

	// index holds, per cell, the ID of the junction, channel or trap
	// at that cell (cells says which), and -1 at every other cell.
	index []int32
}

// At returns the kind of the cell at p (Empty outside the grid).
func (f *Fabric) At(p Pos) CellKind {
	if p.Row < 0 || p.Row >= f.Rows || p.Col < 0 || p.Col >= f.Cols {
		return Empty
	}
	return f.cells[p.Row*f.Cols+p.Col]
}

// JunctionAt returns the junction ID at p, or -1.
func (f *Fabric) JunctionAt(p Pos) int { return f.idAt(p, Junction) }

// TrapAt returns the trap ID at p, or -1.
func (f *Fabric) TrapAt(p Pos) int { return f.idAt(p, Trap) }

// ChannelAt returns the channel ID covering cell p, or -1.
func (f *Fabric) ChannelAt(p Pos) int { return f.idAt(p, Channel) }

// idAt returns the ID the index holds for p if p is a cell of kind k,
// or -1.
func (f *Fabric) idAt(p Pos, k CellKind) int {
	if f.At(p) != k {
		return -1
	}
	return int(f.index[p.Row*f.Cols+p.Col])
}

// Center returns the geometric center cell of the grid.
func (f *Fabric) Center() Pos { return Pos{f.Rows / 2, f.Cols / 2} }

// TrapsByDistance returns all trap IDs sorted by Manhattan distance
// from p (ties broken by trap ID for determinism). Center placement
// and the annealer's move region use this ordering.
//
// It is a counting sort on distance: every trap lies inside the
// Rows×Cols grid, so its distance from p falls in a window of at most
// Rows+Cols-1 values above the grid's own distance from p. One pass
// counts each distance, one places each trap ID in ID order, so the
// cost is O(traps + rows + cols) and the bucket offsets share the one
// allocation with the result (in its capacity-hidden tail).
func (f *Fabric) TrapsByDistance(p Pos) []int {
	n := len(f.Traps)
	if n == 0 {
		return []int{}
	}
	near := Pos{max(0, min(p.Row, f.Rows-1)), max(0, min(p.Col, f.Cols-1))}
	lo := ManhattanDist(p, near)
	buf := make([]int, n+f.Rows+f.Cols-1)
	ids, next := buf[:n:n], buf[n:]
	for i := range f.Traps {
		next[ManhattanDist(f.Traps[i].Pos, p)-lo]++
	}
	sum := 0
	for d, c := range next {
		next[d] = sum
		sum += c
	}
	for i := range f.Traps {
		d := ManhattanDist(f.Traps[i].Pos, p) - lo
		ids[next[d]] = i
		next[d]++
	}
	return ids
}

// rowMajorLess reports whether cell a comes before cell b in
// row-major order.
func rowMajorLess(a, b Pos) bool {
	return a.Row < b.Row || (a.Row == b.Row && a.Col < b.Col)
}

// NearestTrap returns the trap ID whose cell is closest (Manhattan)
// to p among traps for which keep returns true, ties going to the
// lower ID; -1 if none. A nil keep accepts every trap.
//
// keep is called only on traps whose (distance, ID) beats the best
// kept trap found so far, so a trap it is never called on cannot be
// the answer, whatever keep would have said about it. The search
// walks rows outward from p (the upper of two equally far rows first,
// since its traps have the lower IDs), stops once a row is farther
// than the best distance, and within a row binary-searches the
// row-major Traps slice for p's column and walks outward from it
// while the traps can still win.
func (f *Fabric) NearestTrap(p Pos, keep func(trapID int) bool) int {
	n := len(f.Traps)
	if n == 0 {
		return -1
	}
	best, bestDist := -1, int(^uint(0)>>1)
	top, bottom := f.Traps[0].Pos.Row, f.Traps[n-1].Pos.Row
	up, down := min(p.Row, bottom), max(p.Row+1, top)
	for up >= top || down <= bottom {
		r := up
		if up < top || (down <= bottom && down-p.Row < p.Row-up) {
			r = down
			down++
		} else {
			up--
		}
		dr := abs(r - p.Row)
		if dr > bestDist {
			break
		}
		// Walk the row outward from p's column, the nearer side first
		// (the left on a tie, since its trap has the lower ID).
		h := f.searchTraps(Pos{r, p.Col})
		l := h - 1
		for {
			inL := l >= 0 && f.Traps[l].Pos.Row == r
			inH := h < n && f.Traps[h].Pos.Row == r
			if !inL && !inH {
				break
			}
			i := h
			if inL && (!inH || p.Col-f.Traps[l].Pos.Col <= f.Traps[h].Pos.Col-p.Col) {
				i, l = l, l-1
			} else {
				h++
			}
			d := dr + abs(f.Traps[i].Pos.Col-p.Col)
			if d > bestDist || (d == bestDist && i > best) {
				break // every later trap in this row is farther, or as far with a higher ID
			}
			if keep == nil || keep(i) {
				best, bestDist = i, d
				break
			}
		}
	}
	return best
}

// searchTraps returns the index of the first trap at or after cell at
// in row-major order.
func (f *Fabric) searchTraps(at Pos) int {
	lo, hi := 0, len(f.Traps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rowMajorLess(f.Traps[m].Pos, at) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Stats summarizes a fabric.
type Stats struct {
	Rows, Cols                 int
	Junctions, Channels, Traps int
	ChannelCells               int
}

// Stats returns summary counts for the fabric.
func (f *Fabric) Stats() Stats {
	s := Stats{
		Rows: f.Rows, Cols: f.Cols,
		Junctions: len(f.Junctions),
		Channels:  len(f.Channels),
		Traps:     len(f.Traps),
	}
	for _, c := range f.Channels {
		s.ChannelCells += c.Length
	}
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%dx%d fabric: %d junctions, %d channels (%d cells), %d traps",
		s.Rows, s.Cols, s.Junctions, s.Channels, s.ChannelCells, s.Traps)
}
