package hunt

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metaleak/internal/contract"
	"metaleak/internal/machine"
)

var update = flag.Bool("update", false, "rewrite the golden verdict files")

// control is one positive/negative pair of the satellite control suite:
// a known-leaky configuration the hunt must rediscover, and the paper's
// defence against it.
type control struct {
	name    string
	leaky   machine.DesignPoint
	defence machine.DesignPoint
	mix     []OpKind
	seeds   []uint64
	// channel is what every leaky-run divergence must classify to.
	channel string
	// eliminated asserts the defence produces no divergence at all;
	// otherwise the defence must strictly attenuate (lower total Count).
	eliminated bool
	// reclassified asserts the defence takes the channel's component off
	// the vantage, so surviving divergences classify to something else.
	reclassified bool
}

// writeMix isolates the counter write path; touchMix the metadata read
// path. Both keep the secret-independent ops so the programs exercise
// real cache state, not just the channel.
var (
	writeMix = []OpKind{OpWrite, OpSecretWrite, OpIdle}
	touchMix = []OpKind{OpTouch, OpSecretTouch, OpIdle}
)

// walkContract is the §VI-B walk-depth attacker: a vantage that
// resolves only how deep each integrity-tree walk went. Narrowing the
// observable is how a contract directs the hunt at one channel.
const walkContract = "observe=tree,count;allow=tree,count;require=tree"

func controls() []control {
	// SCT counter overflow (VUL-1): 2-bit minors overflow every 4
	// writes, so secret-scheduled writes to one counter group diverge in
	// the overflow stream. The paper's mitigation direction — wider
	// minors — pushes the first overflow past the program horizon.
	ovfLeaky := machine.ConfigSCT()
	ovfLeaky.Seed = 42
	ovfLeaky.MinorBits = 2
	ovfDef := ovfLeaky
	ovfDef.MinorBits = 12

	// HT tree-walk depth: a thrashing metadata cache makes the walk
	// depth track which table page the secret picked. A provisioned
	// cache (Table I's 256 KB) attenuates the channel to the cold-walk
	// residue.
	walkLeaky := machine.ConfigHT()
	walkLeaky.Seed = 42
	walkLeaky.MetaKB = 1
	walkLeaky.Contract = walkContract
	walkDef := walkLeaky
	walkDef.MetaKB = 256

	// MetaLeak-C bank contention: under MIRAGE set probing is gone, so
	// the counter block's DRAM bank is the first structural divergence.
	// The §IX-C isolated-domain defence takes bank off the vantage
	// entirely.
	bankLeaky := machine.ConfigSCT()
	bankLeaky.Seed = 42
	bankLeaky.RandomizedMeta = true
	bankDef := bankLeaky
	bankDef.IsolatedDomains = 4

	return []control{
		{
			name: "ctr-overflow", leaky: ovfLeaky, defence: ovfDef,
			mix: writeMix, seeds: []uint64{0, 1, 2, 3, 4, 5},
			channel: "ctr-overflow", eliminated: true,
		},
		{
			name: "tree-walk", leaky: walkLeaky, defence: walkDef,
			mix: touchMix, seeds: []uint64{0, 1, 2, 3, 4, 5},
			channel: "tree-walk",
		},
		{
			name: "bank-contention", leaky: bankLeaky, defence: bankDef,
			mix: touchMix, seeds: []uint64{0, 1, 2, 3, 4, 5},
			channel: "bank-contention", reclassified: true,
		},
	}
}

func verdictLine(scenario string, seed uint64, v Verdict) string {
	return fmt.Sprintf("%s/%d ch=%s first=%s union=%s count=%d viol=%s miss=%s obs=%d/%d",
		scenario, seed, orNone(v.Channel), orNone(v.FirstComponents), orNone(v.Components),
		v.Count, orNone(v.Violation), orNone(v.Missing), v.ObsA, v.ObsB)
}

func orNone(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func runControl(t *testing.T, scenario string, dp machine.DesignPoint, mix []OpKind, seeds []uint64) ([]Verdict, []string) {
	t.Helper()
	verdicts := make([]Verdict, 0, len(seeds))
	lines := make([]string, 0, len(seeds))
	for _, s := range seeds {
		prog := GenerateMix(s, 64, mix)
		sa, sb := Secrets(s+1000, 8)
		v, err := RunPair(dp, prog, sa, sb)
		if err != nil {
			t.Fatalf("%s seed %d: %v", scenario, s, err)
		}
		verdicts = append(verdicts, v)
		lines = append(lines, verdictLine(scenario, s, v))
	}
	return verdicts, lines
}

// TestControls is the positive/negative control suite: each known-leaky
// configuration must produce divergences classified to its channel,
// each defence must eliminate or strictly attenuate them, and the full
// verdict set is pinned by a golden file.
func TestControls(t *testing.T) {
	var golden []string
	found := map[string]bool{}
	for _, c := range controls() {
		leakyV, leakyLines := runControl(t, c.name+"/leaky", c.leaky, c.mix, c.seeds)
		defV, defLines := runControl(t, c.name+"/defence", c.defence, c.mix, c.seeds)
		golden = append(golden, leakyLines...)
		golden = append(golden, defLines...)

		leakyCount, defCount := 0, 0
		for i, v := range leakyV {
			if !v.Diverged {
				t.Errorf("%s seed %d: leaky config did not diverge", c.name, c.seeds[i])
				continue
			}
			if v.Channel != c.channel {
				t.Errorf("%s seed %d: classified %q, want %q", c.name, c.seeds[i], v.Channel, c.channel)
			}
			found[v.Channel] = true
			leakyCount += v.Count
		}
		for i, v := range defV {
			defCount += v.Count
			if c.eliminated && v.Diverged {
				t.Errorf("%s seed %d: defence still diverges: %s", c.name, c.seeds[i], v.Components)
			}
			if c.reclassified && v.Channel == c.channel {
				t.Errorf("%s seed %d: defence still classifies as %s", c.name, c.seeds[i], c.channel)
			}
		}
		if !c.eliminated && defCount >= leakyCount {
			t.Errorf("%s: defence does not attenuate: %d -> %d diverging observations",
				c.name, leakyCount, defCount)
		}
	}

	// The acceptance bar: the fuzzer rediscovers all three paper
	// channels with no hand-written attack.
	for _, ch := range []string{"ctr-overflow", "tree-walk", "bank-contention"} {
		if !found[ch] {
			t.Errorf("hunt never rediscovered the %s channel", ch)
		}
	}

	compareGolden(t, "controls.golden", strings.Join(golden, "\n")+"\n")
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("verdicts drifted from %s (re-run with -update after auditing):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestOverLeakyConfigViolatesContract pins the contract checker's
// teeth: a design whose declared contract is narrower than its actual
// behaviour must produce a Violation verdict — this is what `make
// check` runs to catch a defence that silently regressed.
func TestOverLeakyConfigViolatesContract(t *testing.T) {
	dp := machine.ConfigSCT()
	dp.Seed = 42
	dp.MinorBits = 2
	// The design claims only timing leaks; the overflow burst proves
	// otherwise.
	dp.Contract = "allow=lat,time;require=none"
	prog := GenerateMix(3, 64, writeMix)
	sa, sb := Secrets(1003, 8)
	v, err := RunPair(dp, prog, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Diverged || v.Violation == "" {
		t.Fatalf("over-leaky config produced no violation: %+v", v)
	}
	if !strings.Contains(v.Violation, "ovf") {
		t.Fatalf("violation %q does not name the overflow channel", v.Violation)
	}
}

// TestDeterminism: the whole pipeline — generation, secrets, execution,
// projection, verdict — is a pure function of the seeds.
func TestDeterminism(t *testing.T) {
	dp := machine.ConfigSCT()
	dp.Seed = 7
	prog := Generate(11, 48)
	prog2 := Generate(11, 48)
	if fmt.Sprint(prog) != fmt.Sprint(prog2) {
		t.Fatal("Generate is not deterministic")
	}
	sa, sb := Secrets(11, 8)
	sa2, sb2 := Secrets(11, 8)
	if string(sa) != string(sa2) || string(sb) != string(sb2) {
		t.Fatal("Secrets is not deterministic")
	}
	if string(sa) == string(sb) {
		t.Fatal("secret pair collided")
	}
	v1, err := RunPair(dp, prog, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := RunPair(dp, prog, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("verdicts differ across identical runs:\n%+v\n%+v", v1, v2)
	}
	// Identical secrets cannot diverge: the differential baseline.
	same, err := RunPair(dp, prog, sa, sa)
	if err != nil {
		t.Fatal(err)
	}
	if same.Diverged {
		t.Fatalf("identical secrets diverged: %+v", same)
	}
}

// TestCrossCheckAgainstCommittedInventory closes the static/dynamic
// loop: every channel the control suite rediscovers dynamically must be
// predicted by at least one committed secretflow leak site. A zero here
// means the taint model and the machine disagree about what leaks.
func TestCrossCheckAgainstCommittedInventory(t *testing.T) {
	counts, err := LoadInventory(filepath.Join("..", "..", "leakage-inventory.json"))
	if err != nil {
		t.Fatal(err)
	}
	results := CrossCheck([]string{"ctr-overflow", "tree-walk", "bank-contention", ""}, counts)
	if len(results) != 3 {
		t.Fatalf("cross-check results: %+v", results)
	}
	for _, r := range results {
		if r.Sites == 0 {
			t.Errorf("dynamic channel %s has no static counterpart (%v) in the inventory",
				r.Channel, r.Static)
		}
	}
	// Unknown channels must surface (Sites 0), not vanish.
	if r := CrossCheck([]string{"made-up"}, counts); len(r) != 1 || r[0].Sites != 0 {
		t.Fatalf("unmapped channel: %+v", r)
	}
}

func TestClassifyPriority(t *testing.T) {
	if got := len(Channels()); got != 8 {
		t.Fatalf("channel list: %d entries", got)
	}
	for i, name := range Channels() {
		m := contract.Mask(0)
		// A mask holding this channel's component plus every
		// lower-priority one must classify to this channel.
		for _, e := range channelOrder[i:] {
			m = m.With(e.comp)
		}
		if got := Classify(m); got != name {
			t.Errorf("Classify(%s) = %q, want %q", m, got, name)
		}
	}
	if Classify(0) != "" {
		t.Error("empty mask classified")
	}
}

// TestRunRefusesOverflowedTrace runs one access more than the trace ring
// holds and requires Run to fail rather than return a truncated trace;
// one access fewer must succeed with every event.
func TestRunRefusesOverflowedTrace(t *testing.T) {
	const slots = 1 << 16
	for _, n := range []int{slots, slots + 1} {
		prog := Program{Ops: make([]Op, n)} // OpTouch of fixed page 0: one event each
		evs, err := Run(machine.ConfigSCT(), prog, nil)
		if n == slots {
			if err != nil || len(evs) != slots {
				t.Fatalf("%d accesses: %d events, err %v", n, len(evs), err)
			}
			continue
		}
		want := fmt.Sprintf("hunt: trace ring overflowed (%d events for %d slots)", n, slots)
		if err == nil || err.Error() != want {
			t.Fatalf("%d accesses: err %v, want %q", n, err, want)
		}
	}
}
