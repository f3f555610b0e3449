package ran

import (
	"testing"
	"testing/quick"

	"concordia/internal/rng"
	"concordia/internal/sim"
)

func TestNumerologySlotDurations(t *testing.T) {
	cases := map[Numerology]sim.Time{
		Mu0: sim.Millisecond,
		Mu1: 500 * sim.Microsecond,
		Mu2: 250 * sim.Microsecond,
		Mu3: sim.FromUs(125),
	}
	for mu, want := range cases {
		if got := mu.SlotDuration(); got != want {
			t.Errorf("mu=%d slot %v want %v", mu, got, want)
		}
	}
}

func TestCellConfigValidate(t *testing.T) {
	good := Cells100MHz(1)[0]
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BandwidthMHz = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = good
	bad.MaxLayers = bad.Antennas + 1
	if bad.Validate() == nil {
		t.Fatal("layers > antennas accepted")
	}
	bad = good
	bad.MaxUEs = 0
	if bad.Validate() == nil {
		t.Fatal("zero MaxUEs accepted")
	}
}

func TestPRBsScaleWithBandwidth(t *testing.T) {
	c20 := Cells20MHz(1)[0]
	c100 := Cells100MHz(1)[0]
	// 20 MHz µ0 has ~106 PRBs, 100 MHz µ1 has ~273 in the 38.101 tables.
	if p := c20.PRBs(); p < 95 || p > 115 {
		t.Errorf("20MHz PRBs %d want ~106", p)
	}
	if p := c100.PRBs(); p < 250 || p > 290 {
		t.Errorf("100MHz PRBs %d want ~273", p)
	}
}

func TestTDDPattern(t *testing.T) {
	c := Cells100MHz(1)[0]
	want := []SlotDir{Downlink, Downlink, Downlink, Special, Uplink}
	for i, w := range want {
		if got := c.SlotDir(i); got != w {
			t.Errorf("slot %d dir %v want %v", i, got, w)
		}
	}
	// Pattern repeats.
	if c.SlotDir(5) != Downlink || c.SlotDir(9) != Uplink {
		t.Error("TDD pattern does not repeat")
	}
	// FDD reports downlink for pattern indexing.
	f := Cells20MHz(1)[0]
	if f.SlotDir(4) != Downlink {
		t.Error("FDD slot dir")
	}
}

func TestMCSFromSNRMonotone(t *testing.T) {
	prev := -1
	for snr := -5.0; snr <= 40; snr += 1 {
		m := MCSFromSNR(snr)
		if m.Index < prev {
			t.Fatalf("MCS index decreased at %v dB", snr)
		}
		prev = m.Index
	}
	if MCSFromSNR(-5).Index != 0 {
		t.Error("very low SNR should pick MCS 0")
	}
	if MCSFromSNR(40).Index != len(MCSTable)-1 {
		t.Error("very high SNR should pick the top MCS")
	}
}

func TestTransportBlockSize(t *testing.T) {
	m := MCSTable[8] // 64QAM 0.55
	tbs := TransportBlockSize(100, m, 2)
	if tbs <= 0 || tbs%8 != 0 {
		t.Fatalf("TBS %d not positive byte-aligned", tbs)
	}
	// Doubling layers roughly doubles TBS.
	tbs1 := TransportBlockSize(100, m, 1)
	if tbs < tbs1*19/10 || tbs > tbs1*21/10 {
		t.Errorf("layer scaling: 1-layer %d vs 2-layer %d", tbs1, tbs)
	}
	if TransportBlockSize(0, m, 1) != 0 {
		t.Error("zero PRBs should give zero TBS")
	}
	if TransportBlockSize(1, MCSTable[0], 1) < 24 {
		t.Error("minimum TBS floor violated")
	}
}

func TestPRBsForBytesInverse(t *testing.T) {
	r := rng.New(1)
	err := quick.Check(func(b uint16, mi uint8) bool {
		bytes := int(b%4096) + 1
		mcs := MCSTable[int(mi)%len(MCSTable)]
		layers := 1 + r.Intn(4)
		prbs := PRBsForBytes(bytes, mcs, layers, 273)
		if prbs == 0 {
			return false
		}
		tbs := TransportBlockSize(prbs, mcs, layers)
		if prbs < 273 && tbs < bytes*8 {
			return false // allocation must carry the payload unless capped
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodeblockCount(t *testing.T) {
	if CodeblockCount(0) != 0 {
		t.Error("zero TBS should have zero codeblocks")
	}
	if c := CodeblockCount(4000); c != 1 {
		t.Errorf("small TBS codeblocks %d want 1", c)
	}
	if c := CodeblockCount(100000); c < 12 {
		t.Errorf("100kb TBS codeblocks %d want >= 12", c)
	}
}

func makeAllocs(r *rng.Rand, cfg CellConfig, bytes int) []UEAlloc {
	return AllocateSlot(cfg, bytes, r)
}

func TestAllocateSlotEmpty(t *testing.T) {
	r := rng.New(2)
	if a := AllocateSlot(Cells20MHz(1)[0], 0, r); a != nil {
		t.Fatal("zero bytes should yield no allocations")
	}
}

func TestAllocateSlotInvariants(t *testing.T) {
	r := rng.New(3)
	cfg := Cells100MHz(1)[0]
	for trial := 0; trial < 200; trial++ {
		bytes := 1 + r.Intn(90000)
		allocs := AllocateSlot(cfg, bytes, r)
		if len(allocs) == 0 {
			t.Fatalf("no allocations for %d bytes", bytes)
		}
		var prbs int
		for _, a := range allocs {
			if a.TBSBits <= 0 || a.Codeblocks <= 0 || a.PRBs <= 0 {
				t.Fatalf("degenerate allocation %+v", a)
			}
			if a.Layers < 1 || a.Layers > cfg.MaxLayers {
				t.Fatalf("layers out of range: %+v", a)
			}
			prbs += a.PRBs
		}
		if prbs > cfg.PRBs() {
			t.Fatalf("PRB budget exceeded: %d > %d", prbs, cfg.PRBs())
		}
		if len(allocs) > cfg.MaxUEs {
			t.Fatalf("too many UEs: %d", len(allocs))
		}
	}
}

func TestUplinkDAGStructure(t *testing.T) {
	r := rng.New(4)
	cfg := Cells100MHz(1)[0]
	allocs := makeAllocs(r, cfg, 20000)
	d := BuildUplinkDAG(cfg, 0, 0, sim.FromMs(1.5), allocs)
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	// Roots: antenna FFTs + control polar decode.
	if got := len(d.Roots()); got != cfg.Antennas+1 {
		t.Fatalf("roots %d want %d", got, cfg.Antennas+1)
	}
	// Per UE: chanest, equalize, demod, dematch, >=1 decode, crc.
	counts := map[TaskKind]int{}
	for _, task := range d.Tasks {
		counts[task.Kind]++
	}
	n := len(allocs)
	if counts[TaskChannelEstimation] != n || counts[TaskCRCCheck] != n {
		t.Fatalf("per-UE task counts wrong: %v for %d UEs", counts, n)
	}
	if counts[TaskLDPCDecode] < n {
		t.Fatalf("decode tasks %d < UEs %d", counts[TaskLDPCDecode], n)
	}
	if counts[TaskFFT] != cfg.Antennas {
		t.Fatalf("FFT tasks %d", counts[TaskFFT])
	}
}

func TestUplinkDAGDecodeSplitting(t *testing.T) {
	cfg := Cells100MHz(1)[0]
	// One UE with many codeblocks must fan out into several decode tasks.
	a := UEAlloc{UE: 0, SNRdB: 20, MCS: MCSTable[12], Layers: 4, PRBs: 270,
		TBSBits: 260000, Codeblocks: CodeblockCount(260000)}
	d := BuildUplinkDAG(cfg, 0, 0, sim.FromMs(1.5), []UEAlloc{a})
	decodes := 0
	for _, task := range d.Tasks {
		if task.Kind == TaskLDPCDecode {
			decodes++
			if cb := task.Features.Get(FCodeblocks); cb > decodeGroupSize {
				t.Fatalf("decode group too large: %v", cb)
			}
		}
	}
	want := (a.Codeblocks + decodeGroupSize - 1) / decodeGroupSize
	if decodes != want {
		t.Fatalf("decode tasks %d want %d", decodes, want)
	}
}

func TestDownlinkDAGStructure(t *testing.T) {
	r := rng.New(5)
	cfg := Cells100MHz(1)[0]
	allocs := makeAllocs(r, cfg, 40000)
	d := BuildDownlinkDAG(cfg, 0, 0, sim.FromMs(1.5), allocs)
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	counts := map[TaskKind]int{}
	for _, task := range d.Tasks {
		counts[task.Kind]++
	}
	if counts[TaskPrecoding] != 1 {
		t.Fatalf("precoding tasks %d want 1", counts[TaskPrecoding])
	}
	if counts[TaskIFFT] != cfg.Antennas {
		t.Fatalf("IFFT tasks %d want %d", counts[TaskIFFT], cfg.Antennas)
	}
	if counts[TaskModulation] != len(allocs) {
		t.Fatalf("modulation tasks %d want %d", counts[TaskModulation], len(allocs))
	}
	// IFFTs must depend on precoding; precoding on every modulation.
	var pc *Task
	for _, task := range d.Tasks {
		if task.Kind == TaskPrecoding {
			pc = task
		}
	}
	if len(pc.Deps) != len(allocs)+1 { // + control encode
		t.Fatalf("precoding deps %d want %d", len(pc.Deps), len(allocs)+1)
	}
}

func TestDAGSuccessorsConsistent(t *testing.T) {
	r := rng.New(6)
	cfg := Cells20MHz(1)[0]
	d := BuildUplinkDAG(cfg, 3, 0, sim.FromMs(2), makeAllocs(r, cfg, 8000))
	for _, task := range d.Tasks {
		for _, s := range task.Succs {
			found := false
			for _, dep := range d.Tasks[s].Deps {
				if dep == task.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("successor link %d->%d without matching dep", task.ID, s)
			}
		}
	}
}

func TestFeatureVector(t *testing.T) {
	var f FeatureVector
	f.Set(FTBSBits, 8448)
	if f.Get(FTBSBits) != 8448 {
		t.Fatal("get/set mismatch")
	}
	sel := f.Select([]Feature{FTBSBits, FNumUEs})
	if sel[0] != 8448 || sel[1] != 0 {
		t.Fatalf("select %v", sel)
	}
	if FTBSBits.String() != "tbs_bits" {
		t.Fatalf("feature name %q", FTBSBits.String())
	}
	if Feature(-1).String() != "unknown" {
		t.Fatal("invalid feature name")
	}
}

func TestTaskKindString(t *testing.T) {
	if TaskLDPCDecode.String() != "ldpc_decode" {
		t.Fatalf("kind name %q", TaskLDPCDecode.String())
	}
	if !TaskLDPCDecode.IsUplink() || TaskLDPCEncode.IsUplink() {
		t.Fatal("IsUplink misclassification")
	}
}

func TestDAGDeterminism(t *testing.T) {
	cfg := Cells100MHz(1)[0]
	mk := func(seed uint64) *DAG {
		r := rng.New(seed)
		return BuildUplinkDAG(cfg, 0, 0, sim.FromMs(1.5), makeAllocs(r, cfg, 30000))
	}
	a, b := mk(42), mk(42)
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("same seed produced different DAGs")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Kind != b.Tasks[i].Kind || a.Tasks[i].Features != b.Tasks[i].Features {
			t.Fatal("same seed produced different tasks")
		}
	}
}

func TestMACDAGStructure(t *testing.T) {
	cfg := Cells20MHz(1)[0]
	d := BuildMACDAG(cfg, 5, 0, sim.Millisecond, 8)
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Tasks) != 3 {
		t.Fatalf("MAC DAG has %d tasks want 3", len(d.Tasks))
	}
	if got := len(d.Roots()); got != 2 {
		t.Fatalf("MAC DAG roots %d want 2 (UL and DL schedulers)", got)
	}
	build := d.Tasks[2]
	if build.Kind != TaskMACBuild || len(build.Deps) != 2 {
		t.Fatalf("MAC build task malformed: %+v", build)
	}
	if build.Features.Get(FNumUEs) != 8 {
		t.Fatal("UE count not propagated")
	}
	if TaskMACUplinkSched.IsUplink() {
		t.Fatal("MAC kinds should not be classified as the PHY uplink chain")
	}
}

func TestLTECellsUseTurboPath(t *testing.T) {
	r := rng.New(7)
	cfg := CellsLTE(1)[0]
	if cfg.Generation != LTE {
		t.Fatal("CellsLTE did not set generation")
	}
	allocs := makeAllocs(r, cfg, 12000)
	ul := BuildUplinkDAG(cfg, 0, 0, sim.FromMs(2), allocs)
	dl := BuildDownlinkDAG(cfg, 0, 0, sim.FromMs(2), allocs)
	counts := map[TaskKind]int{}
	for _, task := range append(ul.Tasks, dl.Tasks...) {
		counts[task.Kind]++
	}
	if counts[TaskTurboDecode] == 0 || counts[TaskTurboEncode] == 0 {
		t.Fatalf("LTE DAGs missing turbo tasks: %v", counts)
	}
	if counts[TaskLDPCDecode] != 0 || counts[TaskLDPCEncode] != 0 {
		t.Fatalf("LTE DAGs still contain LDPC tasks: %v", counts)
	}
}

func TestNRCellsUseLDPCPath(t *testing.T) {
	r := rng.New(8)
	cfg := Cells20MHz(1)[0]
	allocs := makeAllocs(r, cfg, 12000)
	ul := BuildUplinkDAG(cfg, 0, 0, sim.FromMs(2), allocs)
	for _, task := range ul.Tasks {
		if task.Kind == TaskTurboDecode {
			t.Fatal("NR cell produced turbo tasks")
		}
	}
}

func BenchmarkBuildUplinkDAG(b *testing.B) {
	r := rng.New(1)
	cfg := Cells100MHz(1)[0]
	allocs := AllocateSlot(cfg, 40000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildUplinkDAG(cfg, i, 0, sim.FromMs(1.5), allocs)
	}
}

func BenchmarkAllocateSlot(b *testing.B) {
	r := rng.New(2)
	cfg := Cells20MHz(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AllocateSlot(cfg, 20000, r)
	}
}
