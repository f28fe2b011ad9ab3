package fabric

import (
	"fmt"
	"math"
)

// FromCells derives the full fabric topology (junctions, channels,
// traps and their attachments) from a raw cell grid. The grid must
// satisfy the structural rules of §II.B:
//
//   - every maximal straight run of channel cells ends in a junction
//     on both sides;
//   - every channel cell belongs to exactly one such run;
//   - every trap is side-adjacent to exactly one channel cell.
//
// Violations are reported as errors naming the offending cell.
func FromCells(rows, cols int, cells []CellKind) (*Fabric, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("fabric: non-positive dimensions %dx%d", rows, cols)
	}
	if len(cells) != rows*cols {
		return nil, fmt.Errorf("fabric: cell slice has %d entries, want %d", len(cells), rows*cols)
	}
	if len(cells) > math.MaxInt32 {
		return nil, fmt.Errorf("fabric: %dx%d grid has more than %d cells", rows, cols, math.MaxInt32)
	}
	f := &Fabric{
		Rows: rows, Cols: cols,
		cells: append([]CellKind(nil), cells...),
		index: make([]int32, len(cells)),
	}
	var count [Trap + 1]int
	for i, k := range f.cells {
		f.index[i] = -1
		if k <= Trap {
			count[k]++
		}
	}
	// Junctions first: channels reference them.
	f.Junctions = make([]JunctionInfo, 0, count[Junction])
	for i, k := range f.cells {
		if k == Junction {
			id := len(f.Junctions)
			f.index[i] = int32(id)
			f.Junctions = append(f.Junctions, JunctionInfo{ID: id, Pos: Pos{i / cols, i % cols}})
		}
	}
	if err := f.deriveChannels(count[Channel]); err != nil {
		return nil, err
	}
	if err := f.deriveTraps(count[Trap]); err != nil {
		return nil, err
	}
	return f, nil
}

// deriveChannels finds the channel runs. Their cells are carved from
// one slice of all numCells channel cells; a channel cell is claimed
// once the index holds its channel's ID.
func (f *Fabric) deriveChannels(numCells int) error {
	buf := make([]Pos, 0, numCells)
	claimed := func(r, c int) bool { return f.index[r*f.Cols+c] >= 0 }
	// Horizontal runs.
	for r := 0; r < f.Rows; r++ {
		c := 0
		for c < f.Cols {
			if f.At(Pos{r, c}) != Channel || claimed(r, c) {
				c++
				continue
			}
			// Horizontal run requires a junction to the left of the
			// run start; otherwise this cell belongs to a vertical
			// run (handled below).
			start := c
			end := c
			for end+1 < f.Cols && f.At(Pos{r, end + 1}) == Channel {
				end++
			}
			left := f.JunctionAt(Pos{r, start - 1})
			right := f.JunctionAt(Pos{r, end + 1})
			if left >= 0 && right >= 0 {
				lo := len(buf)
				for cc := start; cc <= end; cc++ {
					buf = append(buf, Pos{r, cc})
				}
				f.addChannel(Horizontal, left, right, buf[lo:len(buf):len(buf)])
			}
			c = end + 1
		}
	}
	// Vertical runs.
	for c := 0; c < f.Cols; c++ {
		r := 0
		for r < f.Rows {
			if f.At(Pos{r, c}) != Channel || claimed(r, c) {
				r++
				continue
			}
			start := r
			end := r
			for end+1 < f.Rows && f.At(Pos{end + 1, c}) == Channel && !claimed(end+1, c) {
				end++
			}
			top := f.JunctionAt(Pos{start - 1, c})
			bottom := f.JunctionAt(Pos{end + 1, c})
			if top < 0 || bottom < 0 {
				return fmt.Errorf("fabric: channel run at row %d..%d col %d lacks junction endpoints", start, end, c)
			}
			lo := len(buf)
			for rr := start; rr <= end; rr++ {
				buf = append(buf, Pos{rr, c})
			}
			f.addChannel(Vertical, top, bottom, buf[lo:len(buf):len(buf)])
			r = end + 1
		}
	}
	// Every channel cell must now be claimed.
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			if f.At(Pos{r, c}) == Channel && !claimed(r, c) {
				return fmt.Errorf("fabric: channel cell (%d,%d) not attached to junctions on both ends", r, c)
			}
		}
	}
	return nil
}

func (f *Fabric) addChannel(o Orientation, j1, j2 int, cells []Pos) {
	id := len(f.Channels)
	f.Channels = append(f.Channels, ChannelInfo{
		ID: id, Orientation: o, J1: j1, J2: j2,
		Length: len(cells), Cells: cells,
	})
	for _, p := range cells {
		f.index[p.Row*f.Cols+p.Col] = int32(id)
	}
}

// deriveTraps numbers the numTraps trap cells in row-major order and
// attaches each to its channel. Each channel's Traps list, in ID
// order, is carved from one slice once every trap is numbered.
func (f *Fabric) deriveTraps(numTraps int) error {
	f.Traps = make([]TrapInfo, 0, numTraps)
	perChannel := make([]int, len(f.Channels)+1)
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			p := Pos{r, c}
			if f.At(p) != Trap {
				continue
			}
			var attach Pos
			n := 0
			for _, nb := range [4]Pos{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if f.At(nb) == Channel {
					attach = nb
					n++
				}
			}
			if n != 1 {
				return fmt.Errorf("fabric: trap (%d,%d) adjacent to %d channel cells, want exactly 1", r, c, n)
			}
			chID := f.ChannelAt(attach)
			// A channel is a straight run, so the attachment cell sits
			// as many cells along it as it is away from its first cell.
			cells := f.Channels[chID].Cells
			offset := ManhattanDist(cells[0], attach)
			if offset >= len(cells) || cells[offset] != attach {
				return fmt.Errorf("fabric: internal error: attachment cell of trap (%d,%d) not in channel %d", r, c, chID)
			}
			id := len(f.Traps)
			f.Traps = append(f.Traps, TrapInfo{ID: id, Pos: p, Channel: chID, Offset: offset})
			f.index[r*f.Cols+c] = int32(id)
			perChannel[chID+1]++
		}
	}
	if len(f.Traps) == 0 {
		return fmt.Errorf("fabric: no traps")
	}
	// perChannel[ch] becomes channel ch's first slot in ids, then its
	// fill cursor.
	for ch := range f.Channels {
		perChannel[ch+1] += perChannel[ch]
	}
	ids := make([]int, len(f.Traps))
	for _, tr := range f.Traps {
		ids[perChannel[tr.Channel]] = tr.ID
		perChannel[tr.Channel]++
	}
	lo := 0
	for ch := range f.Channels {
		hi := perChannel[ch]
		if hi > lo {
			f.Channels[ch].Traps = ids[lo:hi:hi]
		}
		lo = hi
	}
	return nil
}

// Validate re-checks structural invariants of an already-built fabric.
func (f *Fabric) Validate() error {
	if len(f.cells) != f.Rows*f.Cols {
		return fmt.Errorf("fabric: cell storage size mismatch")
	}
	for i, j := range f.Junctions {
		if j.ID != i || f.At(j.Pos) != Junction {
			return fmt.Errorf("fabric: junction %d inconsistent", i)
		}
	}
	for i, ch := range f.Channels {
		if ch.ID != i {
			return fmt.Errorf("fabric: channel %d has ID %d", i, ch.ID)
		}
		if ch.Length != len(ch.Cells) || ch.Length == 0 {
			return fmt.Errorf("fabric: channel %d length mismatch", i)
		}
		if ch.J1 < 0 || ch.J1 >= len(f.Junctions) || ch.J2 < 0 || ch.J2 >= len(f.Junctions) {
			return fmt.Errorf("fabric: channel %d junction IDs out of range", i)
		}
		for _, p := range ch.Cells {
			if f.At(p) != Channel {
				return fmt.Errorf("fabric: channel %d covers non-channel cell (%d,%d)", i, p.Row, p.Col)
			}
			if id := f.ChannelAt(p); id != i {
				return fmt.Errorf("fabric: cell (%d,%d) claims channel %d, expected %d", p.Row, p.Col, id, i)
			}
		}
		// Endpoint adjacency.
		if ManhattanDist(f.Junctions[ch.J1].Pos, ch.Cells[0]) != 1 ||
			ManhattanDist(f.Junctions[ch.J2].Pos, ch.Cells[len(ch.Cells)-1]) != 1 {
			return fmt.Errorf("fabric: channel %d endpoints not adjacent to its junctions", i)
		}
	}
	for i, tr := range f.Traps {
		if tr.ID != i || f.At(tr.Pos) != Trap {
			return fmt.Errorf("fabric: trap %d inconsistent", i)
		}
		if i > 0 && !rowMajorLess(f.Traps[i-1].Pos, tr.Pos) {
			return fmt.Errorf("fabric: trap %d at (%d,%d) breaks row-major numbering", i, tr.Pos.Row, tr.Pos.Col)
		}
		if tr.Channel < 0 || tr.Channel >= len(f.Channels) {
			return fmt.Errorf("fabric: trap %d channel out of range", i)
		}
		ch := f.Channels[tr.Channel]
		if tr.Offset < 0 || tr.Offset >= ch.Length {
			return fmt.Errorf("fabric: trap %d offset %d out of channel range", i, tr.Offset)
		}
		if ManhattanDist(tr.Pos, ch.Cells[tr.Offset]) != 1 {
			return fmt.Errorf("fabric: trap %d not adjacent to its attachment cell", i)
		}
	}
	return nil
}
