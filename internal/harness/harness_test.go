package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/workload"
)

// smallArch keeps unit-level harness tests fast; the paper-shape tests use
// the full 64-node machine and are skipped with -short.
func smallArch() core.Arch { return core.DefaultArch().WithNodes(16) }

func TestRunAppNormalizesBaselineToUnity(t *testing.T) {
	app := RunApp(smallArch(), workload.Radix(), 1, core.Configurations())
	if len(app.Runs) != 5 {
		t.Fatalf("runs = %d, want 5", len(app.Runs))
	}
	base := app.Runs[0]
	if base.Config.Name != "Baseline" {
		t.Fatal("first run is not Baseline")
	}
	if e := base.Norm.TotalEnergy(); e < 0.999 || e > 1.001 {
		t.Fatalf("baseline normalized energy = %v", e)
	}
	if app.Measured <= 0 {
		t.Fatal("measured imbalance not positive")
	}
}

func TestSummarize(t *testing.T) {
	apps := []AppRun{RunApp(smallArch(), workload.Volrend(), 1, core.Configurations())}
	sums := Summarize(apps)
	if len(sums) != 5 {
		t.Fatalf("summaries = %d, want 5", len(sums))
	}
	var thrifty, ideal Summary
	for _, s := range sums {
		switch s.Config {
		case "Thrifty":
			thrifty = s
		case "Ideal":
			ideal = s
		}
	}
	if thrifty.AvgEnergySavings <= 0 {
		t.Fatalf("thrifty savings = %v on Volrend", thrifty.AvgEnergySavings)
	}
	if ideal.AvgEnergySavings < thrifty.AvgEnergySavings-1e-9 {
		t.Fatalf("ideal (%v) below thrifty (%v)", ideal.AvgEnergySavings, thrifty.AvgEnergySavings)
	}
	if Summarize(nil) != nil {
		t.Fatal("empty summarize not nil")
	}
}

func TestFigure3ShapeMatchesPaper(t *testing.T) {
	d := Figure3(smallArch(), 1, 5, 4, 4)
	if len(d.Points) != 12 {
		t.Fatalf("points = %d, want 12 (3 barriers x 4 iterations)", len(d.Points))
	}
	// Every bar decomposes into Compute + BST = BIT.
	for _, p := range d.Points {
		if diff := p.BIT - p.Compute - p.BST; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("bar %v does not decompose", p)
		}
		if p.BIT <= 0 {
			t.Fatalf("non-positive normalized BIT %v", p.BIT)
		}
	}
	// The key claim: per-barrier BIT is far more stable than per-thread
	// BST.
	for i, l := range d.BarrierLabels {
		if d.BSTCoefVar[i] <= d.BITCoefVar[i] {
			t.Errorf("barrier %s: BST CoV %.4f not above BIT CoV %.4f",
				l, d.BSTCoefVar[i], d.BITCoefVar[i])
		}
	}
	// Barrier 2 has a visibly longer interval than barriers 1 and 3.
	var b1, b2 float64
	for _, p := range d.Points {
		switch p.Barrier {
		case "1":
			b1 += p.BIT
		case "2":
			b2 += p.BIT
		}
	}
	if b2 <= b1 {
		t.Errorf("barrier 2 mean BIT (%v) not above barrier 1 (%v)", b2/4, b1/4)
	}
}

func TestFigure3BadObserverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad observer did not panic")
		}
	}()
	Figure3(smallArch(), 1, 99, 4, 4)
}

func TestRenderersProduceOutput(t *testing.T) {
	arch := smallArch()
	if out := RenderTable1(arch); !strings.Contains(out, "hypercube") {
		t.Error("Table 1 render missing network row")
	}
	rows := []Table2Row{{App: "FMM", ProblemSize: "16k", Paper: 0.1656, Measured: 0.16}}
	if out := RenderTable2(rows); !strings.Contains(out, "FMM") {
		t.Error("Table 2 render missing app")
	}
	if out := RenderTable3(power.DefaultModel()); !strings.Contains(out, "Sleep3") {
		t.Error("Table 3 render missing state")
	}
	d := Figure3(arch, 1, 3, 4, 4)
	if out := RenderFigure3(d); !strings.Contains(out, "Figure 3") {
		t.Error("Figure 3 render empty")
	}
	apps := []AppRun{RunApp(arch, workload.Radiosity(), 1, core.Configurations())}
	if out := RenderFigure(apps, true); !strings.Contains(out, "Figure 5") {
		t.Error("Figure 5 render empty")
	}
	if out := RenderFigure(apps, false); !strings.Contains(out, "Figure 6") {
		t.Error("Figure 6 render empty")
	}
	if out := RenderFigureCSV(apps, true); !strings.Contains(out, "Radiosity,Thrifty") {
		t.Error("CSV render missing row")
	}
	if out := RenderSummary(Summarize(apps)); !strings.Contains(out, "Thrifty") {
		t.Error("summary render empty")
	}
	abl := []AblationRow{{App: "Ocean", Variant: "cutoff=off", Energy: 1.07, Time: 1.12}}
	if out := RenderAblation("Ablation A", abl); !strings.Contains(out, "Ocean") {
		t.Error("ablation render empty")
	}
}

// --- Paper-shape integration tests on the full 64-node machine ---

func TestPaperShapeFigures56(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine matrix in -short mode")
	}
	arch := core.DefaultArch()
	apps := RunAll(arch, 1)
	sums := Summarize(apps)
	byName := map[string]Summary{}
	for _, s := range sums {
		byName[s.Config] = s
	}

	// The committed figures are this run's output, byte for byte: a change
	// that moves any number must regenerate them and log it in
	// EXPERIMENTS.md.
	for _, fig := range []struct {
		file   string
		energy bool
	}{{"figure5.csv", true}, {"figure6.csv", false}} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", fig.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderFigureCSV(apps, fig.energy); got != string(want) {
			t.Errorf("RenderFigureCSV differs from results/%s:\n%s", fig.file, got)
		}
	}

	// §5.1: Thrifty reduces energy by about 17% on the target apps; we
	// accept the 10–25% band (shape, not absolute).
	th := byName["Thrifty"]
	if th.AvgEnergySavings < 0.10 || th.AvgEnergySavings > 0.25 {
		t.Errorf("Thrifty target-app savings = %v, want ~0.17 (band 0.10-0.25)", th.AvgEnergySavings)
	}
	// §5.1: performance degradation about 2% on average, well bounded.
	if th.AvgSlowdown > 0.04 {
		t.Errorf("Thrifty target-app slowdown = %v, want <= 0.04", th.AvgSlowdown)
	}
	// Thrifty-Halt saves less than Thrifty (multiple states help).
	hl := byName["Thrifty-Halt"]
	if hl.AvgEnergySavings >= th.AvgEnergySavings {
		t.Errorf("Thrifty-Halt savings %v >= Thrifty %v", hl.AvgEnergySavings, th.AvgEnergySavings)
	}
	if hl.AvgEnergySavings < 0.05 || hl.AvgEnergySavings > 0.18 {
		t.Errorf("Thrifty-Halt target-app savings = %v, want ~0.11", hl.AvgEnergySavings)
	}
	// Oracle-Halt "does not fare much better" than Thrifty-Halt on energy.
	oh := byName["Oracle-Halt"]
	if oh.AvgEnergySavings < hl.AvgEnergySavings-0.01 {
		t.Errorf("Oracle-Halt savings %v below Thrifty-Halt %v", oh.AvgEnergySavings, hl.AvgEnergySavings)
	}
	if oh.AvgEnergySavings > hl.AvgEnergySavings+0.05 {
		t.Errorf("Oracle-Halt savings %v too far above Thrifty-Halt %v (paper: not much better)",
			oh.AvgEnergySavings, hl.AvgEnergySavings)
	}
	// Oracle configurations never slow down.
	if oh.WorstSlowdown > 0.005 || byName["Ideal"].WorstSlowdown > 0.005 {
		t.Errorf("oracle configurations slowed down: OH %v, Ideal %v",
			oh.WorstSlowdown, byName["Ideal"].WorstSlowdown)
	}
	// Ideal dominates everything on energy.
	id := byName["Ideal"]
	for _, s := range sums {
		if id.AllAppsAvgSavings < s.AllAppsAvgSavings-1e-9 {
			t.Errorf("Ideal (%v) not the best overall (vs %s %v)", id.AllAppsAvgSavings, s.Config, s.AllAppsAvgSavings)
		}
	}

	perApp := map[string]AppRun{}
	for _, a := range apps {
		perApp[a.Spec.Name] = a
	}
	// Volrend: Thrifty approaches Ideal (§5.2: "matches the savings of
	// Ideal").
	vt, _ := perApp["Volrend"].Run("Thrifty")
	vi, _ := perApp["Volrend"].Run("Ideal")
	if gap := vt.Norm.TotalEnergy() - vi.Norm.TotalEnergy(); gap > 0.06 {
		t.Errorf("Volrend Thrifty-Ideal gap = %v, want small", gap)
	}
	// FFT and Cholesky: Thrifty behaves exactly like Baseline (cold
	// PC-indexed predictor).
	for _, name := range []string{"FFT", "Cholesky"} {
		r, _ := perApp[name].Run("Thrifty")
		if e := r.Norm.TotalEnergy(); e < 0.995 || e > 1.005 {
			t.Errorf("%s Thrifty energy = %v, want ~1.0 (behaves like Baseline)", name, e)
		}
		total := 0
		for _, n := range r.Result.Stats.Sleeps {
			total += n
		}
		if total != 0 {
			t.Errorf("%s Thrifty slept %d times, want 0", name, total)
		}
	}
	// Ocean: Thrifty expends a little more energy and time than Baseline
	// (§5.1), but losses are contained by the cut-off.
	ot, _ := perApp["Ocean"].Run("Thrifty")
	if ot.Norm.TotalEnergy() < 1.0 {
		t.Logf("note: Ocean Thrifty energy %v (paper: slightly above 1)", ot.Norm.TotalEnergy())
	}
	if ot.Norm.SpanRatio > 1.045 {
		t.Errorf("Ocean Thrifty slowdown = %v, want <= 3.5%%-ish with cut-off", ot.Norm.SpanRatio)
	}
	if ot.Result.Stats.Disables == 0 {
		t.Error("Ocean Thrifty never triggered the cut-off")
	}
}

func TestPaperShapeAblationCutoff(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine ablation in -short mode")
	}
	rows := AblationCutoff(core.DefaultArch(), 1)
	byVariant := map[string]AblationRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	off := byVariant["cutoff=off"]
	on := byVariant["cutoff=10%"]
	// §5.2: ~12% degradation without the cut-off, <= ~3.5% with it.
	if off.Time < 1.06 {
		t.Errorf("Ocean without cut-off slowdown = %v, want >= 6%% (paper ~12%%)", off.Time)
	}
	if on.Time > 1.04 {
		t.Errorf("Ocean with 10%% cut-off slowdown = %v, want <= 4%%", on.Time)
	}
	if on.Stats.Disables == 0 {
		t.Error("cut-off never fired")
	}
	// Internal-only without cut-off is far worse than hybrid without
	// cut-off (§3.3.2's motivation).
	internal := byVariant["internal-only, cutoff=off"]
	if internal.Time <= off.Time {
		t.Errorf("internal-only (%v) not worse than hybrid (%v) without cut-off", internal.Time, off.Time)
	}
}

func TestPaperShapeAblationWakeup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine ablation in -short mode")
	}
	rows := AblationWakeup(core.DefaultArch(), 1)
	get := func(app, variant string) AblationRow {
		for _, r := range rows {
			if r.App == app && r.Variant == variant {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", app, variant)
		return AblationRow{}
	}
	// On the stable app, all three mechanisms stay close to baseline time.
	for _, v := range []string{"hybrid", "external", "internal"} {
		if r := get("FMM", v); r.Time > 1.05 {
			t.Errorf("FMM %s slowdown %v too high", v, r.Time)
		}
	}
	// External-only always pays the exit transition on the critical path:
	// never faster than hybrid.
	if get("FMM", "external").Time+1e-9 < get("FMM", "hybrid").Time {
		t.Error("external-only beat hybrid on FMM")
	}
}

func TestPaperShapeAblationPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine ablation in -short mode")
	}
	rows := AblationPredictor(core.DefaultArch(), 1)
	for _, r := range rows {
		if r.Variant == "last-value (paper)" && r.Energy > 0.95 {
			t.Errorf("%s last-value saved almost nothing (%v)", r.App, r.Energy)
		}
		if r.Time > 1.06 {
			t.Errorf("%s/%s slowdown %v too high", r.App, r.Variant, r.Time)
		}
	}
}

func TestPaperShapeAblationPreempt(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine ablation in -short mode")
	}
	rows := AblationPreempt(core.DefaultArch(), 1)
	var off, on AblationRow
	for _, r := range rows {
		switch r.Variant {
		case "filter=off":
			off = r
		case "filter=4x":
			on = r
		}
	}
	if on.Stats.SkippedUpdates == 0 {
		t.Error("underprediction filter never skipped an update")
	}
	if off.Stats.SkippedUpdates != 0 {
		t.Error("disabled filter skipped updates")
	}
}
