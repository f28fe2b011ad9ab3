package fabric

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSmallFabricTopology(t *testing.T) {
	f := Small()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	// 9x9 pitch 4: junction lattice 3x3 = 9 junctions; channels:
	// 3 rows * 2 + 3 cols * 2 = 12; traps: 2 interior horizontal
	// channel rows? Rows 0,4,8 carry horizontal channels; traps
	// attach above/below at rows 1,3,5,7 col 2,6 where the adjacent
	// cell is a channel: rows 1,5 attach upward to rows 0,4; rows
	// 3,7 attach downward to rows 4,8. That is 4 trap rows x 2
	// columns = 8 traps.
	if st.Junctions != 9 || st.Channels != 12 || st.Traps != 8 {
		t.Errorf("stats = %v, want 9 junctions, 12 channels, 8 traps", st)
	}
	for _, ch := range f.Channels {
		if ch.Length != 3 {
			t.Errorf("channel %d length = %d, want 3", ch.ID, ch.Length)
		}
	}
}

func TestQuale4585(t *testing.T) {
	f := Quale4585()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Rows != 45 || f.Cols != 85 {
		t.Fatalf("dimensions %dx%d", f.Rows, f.Cols)
	}
	st := f.Stats()
	// Junction lattice: rows 0,4,...,44 (12), cols 0,4,...,84 (22).
	if st.Junctions != 12*22 {
		t.Errorf("junctions = %d, want %d", st.Junctions, 12*22)
	}
	// Channels: horizontal 12*(22-1) + vertical 22*(12-1).
	wantCh := 12*21 + 22*11
	if st.Channels != wantCh {
		t.Errorf("channels = %d, want %d", st.Channels, wantCh)
	}
	// Traps: trap rows are r%4==1 attaching up (rows 1,5,...,41: 11)
	// and r%4==3 attaching down (rows 3,7,...,43: 11); columns
	// c%4==2, 0<c<84: 21. Total 22*21 = 462.
	if st.Traps != 462 {
		t.Errorf("traps = %d, want 462", st.Traps)
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	for _, f := range []*Fabric{Small(), Quale4585()} {
		text := Render(f)
		g, err := ParseTextString(text)
		if err != nil {
			t.Fatalf("parse rendered fabric: %v", err)
		}
		if Render(g) != text {
			t.Error("render/parse round trip unstable")
		}
		if g.Stats() != f.Stats() {
			t.Errorf("stats changed: %v vs %v", g.Stats(), f.Stats())
		}
	}
}

func TestRenderSmallGolden(t *testing.T) {
	got := Render(Small())
	want := strings.Join([]string{
		"JCCCJCCCJ",
		"C.T.C.T.C",
		"C...C...C",
		"C.T.C.T.C",
		"JCCCJCCCJ",
		"C.T.C.T.C",
		"C...C...C",
		"C.T.C.T.C",
		"JCCCJCCCJ",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("Small fabric render:\n%s\nwant:\n%s", got, want)
	}
}

func TestTrapAttachments(t *testing.T) {
	f := Small()
	for _, tr := range f.Traps {
		ch := f.Channels[tr.Channel]
		attach := ch.Cells[tr.Offset]
		if ManhattanDist(tr.Pos, attach) != 1 {
			t.Errorf("trap %d not adjacent to attachment", tr.ID)
		}
		if ch.Orientation != Horizontal {
			t.Errorf("trap %d attached to %v channel; generator only attaches to horizontal", tr.ID, ch.Orientation)
		}
		found := false
		for _, id := range ch.Traps {
			if id == tr.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("trap %d missing from channel %d trap list", tr.ID, ch.ID)
		}
	}
}

func TestTrapsByDistanceSorted(t *testing.T) {
	f := Small()
	center := f.Center()
	ids := f.TrapsByDistance(center)
	if len(ids) != len(f.Traps) {
		t.Fatalf("got %d ids", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		da := ManhattanDist(f.Traps[ids[i-1]].Pos, center)
		db := ManhattanDist(f.Traps[ids[i]].Pos, center)
		if da > db {
			t.Fatalf("not sorted at %d: %d > %d", i, da, db)
		}
		if da == db && ids[i-1] > ids[i] {
			t.Fatalf("tie not broken by ID at %d", i)
		}
	}
}

func TestNearestTrapFilter(t *testing.T) {
	f := Small()
	banned := f.TrapsByDistance(f.Center())[0]
	got := f.NearestTrap(f.Center(), func(id int) bool { return id != banned })
	if got == banned || got < 0 {
		t.Errorf("NearestTrap returned %d (banned %d)", got, banned)
	}
	if f.NearestTrap(f.Center(), func(int) bool { return false }) != -1 {
		t.Error("NearestTrap with empty filter should return -1")
	}
}

// TestValidateRejectsNonRowMajorTraps: NearestTrap binary-searches
// the Traps slice by cell, so Validate must reject a fabric whose trap
// numbering is not row-major even when every trap is otherwise sound.
func TestValidateRejectsNonRowMajorTraps(t *testing.T) {
	f := Small()
	f.Traps[0], f.Traps[1] = f.Traps[1], f.Traps[0]
	f.Traps[0].ID, f.Traps[1].ID = 0, 1
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "row-major") {
		t.Fatalf("Validate on swapped trap numbering: %v, want a row-major error", err)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown cell", "JCJ\nXCX\n"},
		{"empty", "\n\n"},
		{"dangling channel", "JCC\n"},
		{"orphan trap", "JCCCJ\n....T\n"},
		{"trap two channels", "JCCCJ\nC.T.C\nC.C.C\nC...C\nJCCCJ\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseTextString(c.src); err == nil {
				t.Errorf("ParseTextString(%q) succeeded", c.src)
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []GenSpec{
		{Rows: 9, Cols: 9, Pitch: 1},
		{Rows: 3, Cols: 9, Pitch: 4},
		{Rows: 9, Cols: 3, Pitch: 4},
		{Rows: 9, Cols: 9, Pitch: 4, TrapCols: []int{0}},
		{Rows: 9, Cols: 9, Pitch: 4, TrapCols: []int{4}},
	}
	for i, spec := range cases {
		if _, err := Generate(spec); err == nil {
			t.Errorf("case %d: Generate(%+v) succeeded", i, spec)
		}
	}
}

func TestGeneratePitchSweep(t *testing.T) {
	for _, pitch := range []int{4, 5, 6, 8} {
		size := 4*pitch + 1
		f, err := Generate(GenSpec{Rows: size, Cols: size, Pitch: pitch})
		if err != nil {
			t.Errorf("pitch %d: %v", pitch, err)
			continue
		}
		if err := f.Validate(); err != nil {
			t.Errorf("pitch %d: %v", pitch, err)
		}
		if len(f.Traps) == 0 {
			t.Errorf("pitch %d: no traps", pitch)
		}
	}
	// Pitches 2 and 3 leave no cell adjacent to exactly one channel,
	// so trap placement is impossible and Generate must fail rather
	// than return a trapless fabric.
	for _, pitch := range []int{2, 3} {
		size := 4*pitch + 1
		if _, err := Generate(GenSpec{Rows: size, Cols: size, Pitch: pitch}); err == nil {
			t.Errorf("pitch %d: expected error for trapless pattern", pitch)
		}
	}
}

func TestManhattanDistProperties(t *testing.T) {
	// Bound coordinates to fabric-plausible magnitudes so the sums
	// cannot overflow.
	type coords struct{ AR, AC, BR, BC, CR, CC uint16 }
	pos := func(r, c uint16) Pos { return Pos{int(r), int(c)} }
	symmetric := func(v coords) bool {
		a, b := pos(v.AR, v.AC), pos(v.BR, v.BC)
		return ManhattanDist(a, b) == ManhattanDist(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	triangle := func(v coords) bool {
		a, b, c := pos(v.AR, v.AC), pos(v.BR, v.BC), pos(v.CR, v.CC)
		return ManhattanDist(a, c) <= ManhattanDist(a, b)+ManhattanDist(b, c)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
	identity := func(v coords) bool { return ManhattanDist(pos(v.AR, v.AC), pos(v.AR, v.AC)) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
}

func TestCellKindString(t *testing.T) {
	if Empty.String() != "." || Junction.String() != "J" ||
		Channel.String() != "C" || Trap.String() != "T" || CellKind(9).String() != "?" {
		t.Error("cell kind legend mismatch")
	}
}

func TestAtOutOfBounds(t *testing.T) {
	f := Small()
	for _, p := range []Pos{{-1, 0}, {0, -1}, {9, 0}, {0, 9}, {100, 100}} {
		if f.At(p) != Empty {
			t.Errorf("At(%v) = %v, want Empty", p, f.At(p))
		}
	}
}

func TestLookupMaps(t *testing.T) {
	f := Small()
	for _, j := range f.Junctions {
		if f.JunctionAt(j.Pos) != j.ID {
			t.Errorf("JunctionAt(%v) = %d, want %d", j.Pos, f.JunctionAt(j.Pos), j.ID)
		}
	}
	for _, tr := range f.Traps {
		if f.TrapAt(tr.Pos) != tr.ID {
			t.Errorf("TrapAt(%v) mismatch", tr.Pos)
		}
	}
	if f.JunctionAt(Pos{1, 1}) != -1 || f.TrapAt(Pos{0, 0}) != -1 || f.ChannelAt(Pos{1, 1}) != -1 {
		t.Error("lookups on wrong cells should return -1")
	}
}
