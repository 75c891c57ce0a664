package workload

import (
	"math"
	"testing"

	"rofs/internal/units"
)

func TestStandardWorkloadsValidate(t *testing.T) {
	for _, w := range []Workload{TimeSharing(), TransactionProcessing(), SuperComputer()} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestFileTypeValidation(t *testing.T) {
	base := func() FileType {
		return FileType{
			Name: "x", Files: 1, Users: 1, RWSizeBytes: 1024,
			ReadPct: 50, WritePct: 30, ExtendPct: 10,
		}
	}
	if err := (func() error { ft := base(); return ft.Validate() })(); err != nil {
		t.Fatalf("base type invalid: %v", err)
	}
	mutations := []func(*FileType){
		func(ft *FileType) { ft.Files = 0 },
		func(ft *FileType) { ft.Users = 0 },
		func(ft *FileType) { ft.ProcessTimeMS = -1 },
		func(ft *FileType) { ft.RWSizeBytes = 0 },
		func(ft *FileType) { ft.InitialBytes = -1 },
		func(ft *FileType) { ft.ReadPct = -1 },
		func(ft *FileType) { ft.ReadPct = 80; ft.WritePct = 30 },
		func(ft *FileType) { ft.DeletePct = 150 },
		// NaN passes an x < 0 check; each float field must reject it.
		func(ft *FileType) { ft.ProcessTimeMS = math.NaN() },
		func(ft *FileType) { ft.HitFreqMS = math.NaN() },
		func(ft *FileType) { ft.ReadPct = math.NaN() },
		func(ft *FileType) { ft.WritePct = math.NaN() },
		func(ft *FileType) { ft.ExtendPct = math.NaN() },
		func(ft *FileType) { ft.DeletePct = math.NaN() },
		func(ft *FileType) { ft.HotSkew = math.NaN() },
	}
	for i, m := range mutations {
		ft := base()
		m(&ft)
		if ft.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCompactionValidation(t *testing.T) {
	for _, c := range []Compaction{{}, {Policy: CompactLeveled, SegmentBytes: 1 << 20, FlushEveryMS: 100, Fanout: 8}} {
		w := TransactionProcessing()
		w.Compact = &c
		if err := w.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	for _, c := range []Compaction{
		{Policy: "lsm"},
		{SegmentBytes: -1},
		{FlushEveryMS: -1},
		{FlushEveryMS: math.NaN()},
		{Fanout: 1},
	} {
		w := TransactionProcessing()
		w.Compact = &c
		if w.Validate() == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestDeallocPct(t *testing.T) {
	ft := FileType{ReadPct: 60, WritePct: 15, ExtendPct: 15}
	if got := ft.DeallocPct(); got != 10 {
		t.Fatalf("DeallocPct = %g", got)
	}
}

func TestTSMatchesPaperProse(t *testing.T) {
	w := TimeSharing()
	if len(w.Types) != 2 {
		t.Fatalf("TS has %d types", len(w.Types))
	}
	small, large := w.Types[0], w.Types[1]
	if small.InitialBytes >= 8*units.KB || small.InitialBytes+small.InitialDevBytes > 8*units.KB {
		t.Errorf("small files (mean %d) must stay at or below the 8K threshold", small.InitialBytes)
	}
	if large.InitialBytes != 96*units.KB {
		t.Errorf("large mean size = %d, want 96K", large.InitialBytes)
	}
	// "Two-thirds of all requests are to these [small] files": same think
	// time, twice the users.
	if small.Users != 2*large.Users || small.ProcessTimeMS != large.ProcessTimeMS {
		t.Error("TS request ratio is not 2:1 small:large")
	}
	// Large files: 60r/15w/15e/5d/5t.
	if large.ReadPct != 60 || large.WritePct != 15 || large.ExtendPct != 15 {
		t.Error("TS large ratios wrong")
	}
	if large.DeallocPct() != 10 || large.DeletePct != 50 {
		t.Error("TS large deallocation split wrong")
	}
	// "An abundance of small files": they dominate both count and space.
	if small.Files < 10*large.Files {
		t.Error("TS small files should vastly outnumber large files")
	}
	smallBytes := int64(small.Files) * small.InitialBytes
	largeBytes := int64(large.Files) * large.InitialBytes
	if smallBytes <= 2*largeBytes {
		t.Error("TS small files should dominate space")
	}
	// The initial population must fit even under buddy's power-of-two
	// expansion (≈8K per small file) on the 2.7G array.
	total := int64(8) * 337 * units.MB
	worst := int64(small.Files)*8*units.KB + int64(large.Files)*128*units.KB
	if float64(worst)/float64(total) > 0.95 {
		t.Errorf("TS worst-case buddy expansion %.1f%% exceeds the 95%% ceiling",
			100*float64(worst)/float64(total))
	}
}

func TestTPMatchesPaperProse(t *testing.T) {
	w := TransactionProcessing()
	if len(w.Types) != 3 {
		t.Fatalf("TP has %d types", len(w.Types))
	}
	rel, app, sys := w.Types[0], w.Types[1], w.Types[2]
	if rel.Files != 10 || rel.InitialBytes != 210*units.MB {
		t.Error("TP relations wrong")
	}
	if rel.ReadPct != 60 || rel.WritePct != 30 || rel.ExtendPct != 7 || rel.DeallocPct() != 3 {
		t.Error("TP relation ratios wrong")
	}
	if rel.Pattern != Random {
		t.Error("TP relations must be randomly accessed")
	}
	if app.Files != 5 || app.InitialBytes != 5*units.MB || app.ExtendPct != 93 || app.ReadPct != 2 {
		t.Error("TP app logs wrong")
	}
	if sys.Files != 1 || sys.InitialBytes != 10*units.MB || sys.ExtendPct != 94 || sys.ReadPct != 5 {
		t.Error("TP system log wrong")
	}
}

func TestSCMatchesPaperProse(t *testing.T) {
	w := SuperComputer()
	large, med, small := w.Types[0], w.Types[1], w.Types[2]
	if large.Files != 1 || large.InitialBytes != 500*units.MB {
		t.Error("SC large wrong")
	}
	if med.Files != 15 || med.InitialBytes != 100*units.MB {
		t.Error("SC medium wrong")
	}
	if small.Files != 10 || small.InitialBytes != 10*units.MB {
		t.Error("SC small wrong")
	}
	if large.RWSizeBytes != 512*units.KB || small.RWSizeBytes != 32*units.KB {
		t.Error("SC burst sizes wrong")
	}
	for _, ft := range w.Types {
		if ft.ReadPct != 60 || ft.WritePct != 30 {
			t.Errorf("%s: read/write ratios wrong", ft.Name)
		}
		if ft.Pattern != Sequential {
			t.Errorf("%s: SC files are contiguous-burst (sequential)", ft.Name)
		}
	}
	if small.DeletePct != 100 {
		t.Error("SC small files are deleted, not truncated")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"TS", "ts", "TP", "tp", "SC", "sc"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestExtentRanges(t *testing.T) {
	// Spot-check against the paper's §4.3 tables.
	r, err := ExtentRanges("TS", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{units.KB, 8 * units.KB, units.MB}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("TS 3 ranges = %v", r)
		}
	}
	r, err = ExtentRanges("SC", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 5 || r[0] != 10*units.KB || r[4] != 16*units.MB {
		t.Fatalf("SC 5 ranges = %v", r)
	}
	for _, wl := range []string{"TS", "TP", "SC"} {
		for n := 1; n <= 5; n++ {
			r, err := ExtentRanges(wl, n)
			if err != nil || len(r) != n {
				t.Errorf("%s %d ranges: %v, %v", wl, n, r, err)
			}
			for i := 1; i < len(r); i++ {
				if r[i] <= r[i-1] {
					t.Errorf("%s %d ranges not ascending: %v", wl, n, r)
				}
			}
		}
	}
	if _, err := ExtentRanges("TS", 6); err == nil {
		t.Error("6 ranges accepted")
	}
	if _, err := ExtentRanges("xx", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
