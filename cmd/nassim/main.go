// Command nassim is the CLI front-end of the SNA assistant framework. Its
// subcommands mirror the paper's workflow:
//
//	nassim run      -vendors Huawei,Cisco,Nokia,H3C -workers 4 -scale 0.1
//	nassim parse    -vendor Huawei -pages ./manualdata/huawei/pages -out corpus.json
//	nassim validate -vendor Huawei -corpus corpus.json
//	nassim map      -vendor Huawei -corpus corpus.json -model IR+NetBERT -top 10 -limit 5
//	nassim demo     -vendor Huawei -scale 0.02
//
// run drives the staged pipeline engine over several vendors concurrently,
// with artifact caching and Ctrl-C cancellation at stage boundaries;
// parse runs the vendor manual parser plus the TDD completeness tests;
// validate runs formal syntax validation and hierarchy derivation and
// reports what the experts must review; map recommends UDM attributes for
// VDM parameters; demo runs the whole synthetic pipeline end to end.
//
// Global flags (before the subcommand) switch on the telemetry layer:
//
//	nassim --metrics-addr :8080 demo       # serve /metrics, /debug/vars, /debug/traces, /debug/pprof/
//	nassim --log-level debug demo          # structured pipeline logging
//	nassim --trace-buffer 1024 demo        # record stage spans
//
// For a long-lived process with those endpoints, run `nassim serve`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"nassim"
	"nassim/internal/corpus"
	"nassim/internal/obsreport"
)

func main() {
	g := flag.NewFlagSet("nassim", flag.ExitOnError)
	g.Usage = usage
	metricsAddr := g.String("metrics-addr", "", "serve telemetry HTTP endpoints on this address (\":0\" picks a port)")
	logFormat := g.String("log-format", "text", "log output format: text or json")
	logLevel := g.String("log-level", "", "enable structured logging at this level (debug, info, warn, error)")
	traceBuffer := g.Int("trace-buffer", 0, "record stage spans in a ring buffer of this capacity")
	g.Parse(os.Args[1:]) // stops at the first non-flag: the subcommand

	switch strings.ToLower(strings.TrimSpace(*logFormat)) {
	case "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "nassim: unknown -log-format %q (use text or json)\n", *logFormat)
		os.Exit(2)
	}
	if *logLevel != "" {
		switch strings.ToLower(strings.TrimSpace(*logLevel)) {
		case "debug", "info", "warn", "warning", "error":
		default:
			fmt.Fprintf(os.Stderr, "nassim: unknown -log-level %q (use debug, info, warn, error)\n", *logLevel)
			os.Exit(2)
		}
		nassim.InitLogging(nassim.LogConfig{Format: *logFormat, Level: nassim.ParseLogLevel(*logLevel)})
	}
	if *traceBuffer > 0 {
		nassim.EnableTracing(*traceBuffer)
	}
	var srv *nassim.TelemetryServer
	if *metricsAddr != "" {
		var err error
		srv, err = nassim.ServeTelemetry(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nassim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving /metrics, /debug/vars, /debug/traces, /debug/pprof/ on http://%s\n", srv.Addr())
	}

	rest := g.Args()
	if len(rest) == 0 {
		usage()
		os.Exit(2)
	}

	var err error
	switch rest[0] {
	case "run":
		err = cmdRun(rest[1:])
	case "reconcile":
		err = cmdReconcile(rest[1:])
	case "serve":
		err = cmdServe(rest[1:])
	case "client":
		err = cmdClient(rest[1:])
	case "parse":
		err = cmdParse(rest[1:])
	case "validate":
		err = cmdValidate(rest[1:])
	case "map":
		err = cmdMap(rest[1:])
	case "intent":
		err = cmdIntent(rest[1:])
	case "demo":
		err = cmdDemo(rest[1:])
	case "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nassim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `nassim — SDN assimilation assistant (NAssim, SIGCOMM'22 reproduction)

usage: nassim [global flags] <subcommand> [flags]

subcommands:
  run        drive the staged pipeline engine over several vendors concurrently
  reconcile  hold a simulated fleet to its assimilated desired state (drift
             detection, incremental re-validation, deterministic plans)
  serve      run nassimd, the long-lived assimilation daemon (singleflight
             dedup, bounded queue, per-tenant admission control, SSE progress)
  client     submit one request to a running nassimd and print the result
  parse     parse vendor manual pages into the vendor-independent corpus
  validate  formal syntax validation + hierarchy derivation over a corpus
  map       recommend UDM attributes for VDM parameters
  intent    push a UDM-level intent to a simulated device (controller demo)
  demo      run the full synthetic pipeline end to end

global flags (before the subcommand):
  -metrics-addr addr   serve /metrics, /debug/vars, /debug/traces, /debug/pprof/
                       while the subcommand runs (nassim serve mounts them too)
  -log-level level     structured logging at debug|info|warn|error
  -log-format fmt      text (default) or json
  -trace-buffer n      record stage spans in a ring buffer of capacity n

run "nassim <subcommand> -h" for subcommand flags.
`)
}

// parseArtifact is the on-disk output of the parse subcommand: the corpus
// plus the explicit hierarchy edges some vendors publish.
type parseArtifact struct {
	Vendor    string
	Corpora   []nassim.Corpus
	Hierarchy []nassim.Edge
}

func loadArtifact(path string) (*parseArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art parseArtifact
	if err := json.Unmarshal(data, &art); err == nil && len(art.Corpora) > 0 {
		return &art, nil
	}
	// Fall back to a bare corpus array (the released-dataset format).
	corpora, err := corpus.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%s is neither a parse artifact nor a corpus dataset: %w", path, err)
	}
	art = parseArtifact{Corpora: corpora}
	if len(corpora) > 0 {
		art.Vendor = corpora[0].Vendor
	}
	return &art, nil
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	vendor := fs.String("vendor", "", "vendor of the manual")
	pagesDir := fs.String("pages", "", "directory of manual HTML pages")
	out := fs.String("out", "corpus.json", "output artifact path")
	fs.Parse(args)
	if *vendor == "" || *pagesDir == "" {
		return fmt.Errorf("parse: -vendor and -pages are required")
	}
	entries, err := os.ReadDir(*pagesDir)
	if err != nil {
		return err
	}
	var pages []nassim.Page
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".html") {
			continue
		}
		path := filepath.Join(*pagesDir, e.Name())
		html, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pages = append(pages, nassim.Page{URL: "file://" + path, HTML: string(html)})
	}
	if len(pages) == 0 {
		return fmt.Errorf("parse: no .html pages in %s", *pagesDir)
	}
	res, err := nassim.ParseManual(context.Background(), *vendor, pages)
	if err != nil {
		return err
	}
	fmt.Printf("parsed %d pages\n%s", len(pages), res.Completeness.Summary())
	art := parseArtifact{Vendor: *vendor, Corpora: res.Corpora, Hierarchy: res.Hierarchy}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote parse artifact to %s\n", *out)
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	vendor := fs.String("vendor", "", "vendor (defaults to the artifact's)")
	corpusPath := fs.String("corpus", "corpus.json", "parse artifact or corpus dataset")
	showInvalid := fs.Int("show-invalid", 10, "how many invalid CLIs to print")
	save := fs.String("save", "", "write the validated VDM (derived hierarchy included) to this file")
	fs.Parse(args)
	art, err := loadArtifact(*corpusPath)
	if err != nil {
		return err
	}
	v := *vendor
	if v == "" {
		v = art.Vendor
	}
	model, rep := nassim.BuildVDM(context.Background(), v, art.Corpora, art.Hierarchy)
	fmt.Println(model.Summary())
	fmt.Println("derivation:", rep)
	if n := len(model.InvalidCLIs); n > 0 {
		fmt.Printf("formal syntax validation flagged %d CLI templates for expert review:\n", n)
		max := n
		if max > *showInvalid {
			max = *showInvalid
		}
		for _, ic := range model.InvalidCLIs[:max] {
			fmt.Println("  -", ic)
			if ic.Err != nil {
				for _, s := range ic.Err.Suggestions {
					fmt.Println("      candidate fix:", s)
				}
			}
		}
		if n > max {
			fmt.Printf("  ... and %d more\n", n-max)
		}
	}
	if amb := model.AmbiguousViews(); len(amb) > 0 {
		fmt.Printf("ambiguous views (recorded with relevant snippets for review): %v\n", amb)
	}
	if issues := nassim.ValidateHierarchy(model); len(issues) > 0 {
		fmt.Printf("hierarchy consistency issues: %d\n", len(issues))
		for i, is := range issues {
			if i >= 10 {
				fmt.Printf("  ... and %d more\n", len(issues)-10)
				break
			}
			fmt.Println("  -", is)
		}
	} else {
		fmt.Println("hierarchy consistency: OK")
	}
	if *save != "" {
		data, err := nassim.MarshalVDM(model)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*save, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote validated VDM to %s\n", *save)
	}
	return nil
}

func cmdMap(args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	vendor := fs.String("vendor", "", "vendor (defaults to the artifact's)")
	corpusPath := fs.String("corpus", "corpus.json", "parse artifact or corpus dataset")
	model := fs.String("model", "IR+SBERT", "mapper model (IR, SimCSE, SBERT, NetBERT, IR+SimCSE, IR+SBERT, IR+NetBERT)")
	top := fs.Int("top", 10, "recommendations per parameter")
	limit := fs.Int("limit", 5, "how many parameters to map (0 = all)")
	param := fs.String("param", "", `map one specific parameter ("<corpusIndex>#<name>")`)
	vdmPath := fs.String("vdm", "", "load a saved validated VDM instead of re-deriving from -corpus")
	fs.Parse(args)
	var vdmModel *nassim.VDM
	if *vdmPath != "" {
		data, err := os.ReadFile(*vdmPath)
		if err != nil {
			return err
		}
		vdmModel, err = nassim.UnmarshalVDM(data)
		if err != nil {
			return err
		}
	} else {
		art, err := loadArtifact(*corpusPath)
		if err != nil {
			return err
		}
		v := *vendor
		if v == "" {
			v = art.Vendor
		}
		vdmModel, _ = nassim.BuildVDM(context.Background(), v, art.Corpora, art.Hierarchy)
	}
	u := nassim.BuildUDM()
	mp, err := nassim.NewMapper(u, nassim.ModelKind(*model))
	if err != nil {
		return err
	}
	params := vdmModel.Parameters()
	if *param != "" {
		var idx int
		var name string
		if _, err := fmt.Sscanf(*param, "%d#%s", &idx, &name); err != nil {
			return fmt.Errorf("map: bad -param %q (want <corpusIndex>#<name>)", *param)
		}
		params = []nassim.Parameter{{Corpus: idx, Name: name}}
	} else if *limit > 0 && len(params) > *limit {
		params = params[:*limit]
	}
	for _, p := range params {
		ctx := nassim.ExtractContext(vdmModel, p)
		fmt.Print(nassim.Explain(ctx, mp.Recommend(ctx, *top)))
	}
	return nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	vendor := fs.String("vendor", "Huawei", "vendor to assimilate")
	scale := fs.Float64("scale", 0.02, "model scale (1.0 = paper scale)")
	fs.Parse(args)

	fmt.Printf("=== SNA demo: assimilating a synthetic %s device (scale %.2f) ===\n", *vendor, *scale)
	ctx := context.Background()
	asr, err := nassim.AssimilateVendor(ctx, *vendor, *scale)
	if err != nil {
		return err
	}
	fmt.Printf("manual pages parsed: %d (completeness tests: passed=%v)\n",
		len(asr.Parsed.Corpora), asr.Parsed.Completeness.Passed())
	fmt.Printf("invalid CLI templates caught and expert-corrected: %d\n", asr.PreCorrectionInvalid)
	fmt.Println(asr.VDM.Summary())

	if files, ok := nassim.SyntheticConfigs(asr.Model, *scale); ok {
		rep := nassim.ValidateConfigs(ctx, asr.VDM, files)
		fmt.Println("empirical validation:", rep)
	}

	u := nassim.BuildUDM()
	mp, err := nassim.NewMapper(u, nassim.ModelIRSBERT)
	if err != nil {
		return err
	}
	anns := nassim.GroundTruthAnnotations(asr.Model, 5, 1)
	sort.Slice(anns, func(a, b int) bool { return anns[a].AttrID < anns[b].AttrID })
	fmt.Println("\nsample VDM->UDM recommendations (IR+SBERT):")
	for _, ann := range anns {
		pc := nassim.ExtractContext(asr.VDM, ann.Param)
		fmt.Print(nassim.Explain(pc, mp.Recommend(pc, 3)))
		fmt.Printf("  (ground truth: %s)\n", ann.AttrID)
	}
	return nil
}

// cmdIntent demonstrates the controller: spin up a simulated device for
// the vendor, build the confirmed binding (ground truth plays the
// expert-reviewed mapping), and push one UDM-level intent.
func cmdIntent(args []string) error {
	fs := flag.NewFlagSet("intent", flag.ExitOnError)
	vendor := fs.String("vendor", "Huawei", "vendor of the target device")
	scale := fs.Float64("scale", 0.05, "device model scale")
	attr := fs.String("attr", "", "UDM attribute ID (empty: pick a bound one)")
	value := fs.String("value", "7", "value to configure")
	fs.Parse(args)

	asr, err := nassim.AssimilateVendor(context.Background(), *vendor, *scale)
	if err != nil {
		return err
	}
	binding := nassim.BindingFromAnnotations(
		nassim.GroundTruthAnnotations(asr.Model, 200, 17))
	dev, err := nassim.NewDevice(asr.Model)
	if err != nil {
		return err
	}
	srv, err := nassim.ServeDevice(dev, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := nassim.DialDevice(srv.Addr())
	if err != nil {
		return err
	}
	defer client.Close()

	ctrl := nassim.NewController(17)
	if err := nassim.RegisterDevice(ctrl, "device-1", *vendor, asr.VDM, binding,
		client, dev.ShowConfigCommand()); err != nil {
		return err
	}
	attrID := *attr
	if attrID == "" {
		ids := make([]string, 0, len(binding))
		for id := range binding {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if strings.HasSuffix(id, "-time") || strings.HasSuffix(id, "-limit") {
				attrID = id
				break
			}
		}
		if attrID == "" && len(ids) > 0 {
			attrID = ids[0]
		}
	}
	fmt.Printf("intent: set %s = %s on device-1 (%s at %s)\n", attrID, *value, *vendor, srv.Addr())
	res, err := ctrl.Apply("device-1", nassim.Intent{AttrID: attrID, Value: *value})
	if err != nil {
		return err
	}
	for _, line := range res.Chain {
		fmt.Printf("  > %s\n", line)
	}
	fmt.Printf("  > %s\n", res.CLI)
	fmt.Printf("verified via %q: %v\n", dev.ShowConfigCommand(), res.Verified)
	return nil
}

// cmdRun drives the staged pipeline engine: assimilate
// several vendors concurrently with content-hash artifact caching. Ctrl-C
// cancels the run at the next stage boundary. -repeat 2 demonstrates the
// warm-cache path: the second round reports every stage as skipped.
// chaosProfileFlag is the -chaos-profile flag value shared by run and
// reconcile: a named scenario from the chaos library, validated at
// flag-parse time so unknown names are rejected before any work starts.
type chaosProfileFlag struct{ name string }

func (f *chaosProfileFlag) String() string { return f.name }

func (f *chaosProfileFlag) Set(v string) error {
	v = strings.TrimSpace(v)
	if v == "" {
		f.name = ""
		return nil
	}
	if _, err := nassim.FleetScenarioByName(v); err != nil {
		return err
	}
	f.name = v
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	vendors := fs.String("vendors", strings.Join(nassim.Vendors(), ","), "comma-separated vendors to assimilate")
	scale := fs.Float64("scale", 0.1, "model scale (1.0 = paper scale)")
	workers := fs.Int("workers", 4, "vendors assimilated concurrently")
	cacheDir := fs.String("cache-dir", "", "on-disk artifact cache directory (warm-starts later processes)")
	validate := fs.Bool("validate", true, "run empirical configuration validation (Figure 8)")
	live := fs.Bool("live", false, "live-test unused commands on an in-process simulated device")
	var chaosProfile chaosProfileFlag
	fs.Var(&chaosProfile, "chaos-profile", "serve live-test devices behind this named chaos profile (one of "+
		strings.Join(nassim.ChaosProfileNames(), ", ")+"; implies -live)")
	repeat := fs.Int("repeat", 1, "run the pipeline this many times (>1 exercises the artifact cache)")
	seed := fs.Uint64("seed", 7, "live-test instantiation seed (also drives chaos fault schedules)")
	timeout := fs.Duration("timeout", 0, "cancel the run after this long (0 = no deadline)")
	report := fs.String("report", "", "write the per-run manifest (schema "+nassim.RunReportSchema+") to this file (\"-\" prints it)")
	traceOut := fs.String("trace-out", "", "export recorded spans as a Chrome trace-event file after the run (enables tracing if off)")
	profileStages := fs.String("profile-stages", "", "flight recorder: write per-stage pprof CPU+heap captures to this directory (forces -workers 1)")
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var names []string
	for _, v := range strings.Split(*vendors, ",") {
		if v = strings.TrimSpace(v); v != "" {
			names = append(names, v)
		}
	}
	if *profileStages != "" && *workers != 1 {
		fmt.Println("profile-stages: forcing -workers 1 (CPU profiling is process-global; overlapping stages would misattribute samples)")
		*workers = 1
	}
	if *traceOut != "" && nassim.TraceSnapshot() == nil {
		nassim.EnableTracing(4096)
	}
	timer := nassim.NewStageTimer()
	hook := func(_ string, stage nassim.PipelineStage) func() { return timer.Start(string(stage)) }
	var flight *obsreport.FlightRecorder
	if *profileStages != "" {
		flight = obsreport.NewFlightRecorder(*profileStages)
		// The recorder brackets the timer, so capture overhead stays out
		// of the stage times.
		hook = bothHooks(flight.StageHook(), hook)
	}
	opts := nassim.Options{
		Vendors: names, Scale: *scale, Workers: *workers,
		Cache: nassim.NewPipelineCache(), CacheDir: *cacheDir,
		Validate: *validate, LiveTest: *live || chaosProfile.name != "", Seed: *seed,
		// Profiling runs get a manifest too: its Timing.Derived block carries
		// the pool utilizations, sharing one code path with BENCH_frontend.json.
		Report: *report != "" || *profileStages != "", StageHook: hook,
	}
	if chaosProfile.name != "" {
		p, err := nassim.ChaosProfileByName(chaosProfile.name, *seed)
		if err != nil {
			return err // unreachable: Set validated the name at parse time
		}
		opts.Chaos = &p
	}
	var manifest *nassim.RunReport
	for round := 1; round <= *repeat; round++ {
		start := time.Now()
		res, err := nassim.Assimilate(ctx, opts)
		if err != nil {
			return err
		}
		if res.Report != nil {
			manifest = res.Report // keep the last (warmest) round's manifest
		}
		fmt.Printf("round %d (%v): %s\n", round, time.Since(start).Round(time.Millisecond), res.Stats)
		for _, asr := range res.Results {
			if asr == nil {
				continue
			}
			line := fmt.Sprintf("  %-8s commands=%d views=%d invalid=%d corrected=%d",
				asr.VDM.Vendor, len(asr.VDM.Corpora), len(asr.VDM.Views),
				asr.PreCorrectionInvalid, asr.CorrectionsApplied)
			if asr.Empirical != nil {
				line += fmt.Sprintf(" config_match=%.1f%%", 100*asr.Empirical.MatchingRatio())
			}
			if asr.Live != nil {
				line += fmt.Sprintf(" live_verified=%d/%d", asr.Live.Verified, asr.Live.Tested)
			}
			if asr.Degraded() {
				for st, reason := range asr.DegradedStages {
					line += fmt.Sprintf(" DEGRADED[%s=%s]", st, reason)
				}
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("stage timing (executed stages only):\n%s", timer.Table())
	if manifest != nil && len(manifest.Timing.Derived) > 0 {
		keys := make([]string, 0, len(manifest.Timing.Derived))
		for k := range manifest.Timing.Derived {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("derived (same code path as BENCH_frontend.json):")
		for _, k := range keys {
			fmt.Printf("  %s = %.3f\n", k, manifest.Timing.Derived[k])
		}
	}
	if manifest != nil {
		fmt.Println("manifest:", manifest.Summary())
		if *report == "-" {
			data, err := manifest.MarshalIndent()
			if err != nil {
				return err
			}
			os.Stdout.Write(data)
		} else if *report != "" {
			if err := manifest.WriteFile(*report); err != nil {
				return err
			}
			fmt.Printf("wrote run manifest to %s\n", *report)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := nassim.ExportChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (load in chrome://tracing or Perfetto)\n", *traceOut)
	}
	if flight != nil {
		// A failed capture must not fail the run it observed.
		if err := flight.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "nassim: flight recorder:", err)
		}
		fmt.Printf("flight recorder: %d pprof capture(s) in %s\n", len(flight.Captures()), *profileStages)
	}
	return nil
}

// bothHooks composes two stage hooks: outer fires before inner, and
// their finish funcs run in reverse order, so outer brackets inner.
func bothHooks(outer, inner func(string, nassim.PipelineStage) func()) func(string, nassim.PipelineStage) func() {
	return func(vendor string, stage nassim.PipelineStage) func() {
		fo, fi := outer(vendor, stage), inner(vendor, stage)
		return func() {
			if fi != nil {
				fi()
			}
			if fo != nil {
				fo()
			}
		}
	}
}

func cmdReconcile(args []string) error {
	fs := flag.NewFlagSet("reconcile", flag.ExitOnError)
	devices := fs.Int("devices", 32, "fleet size (simulated devices)")
	vendors := fs.String("vendors", "", "comma-separated fleet vendors (default: all four)")
	scale := fs.Float64("scale", 0.05, "model scale for the desired-state derivation")
	cycles := fs.Int("cycles", 2, "reconcile cycles to run (0 = run continuously until interrupted)")
	interval := fs.Duration("interval", time.Second, "cycle pacing in continuous mode")
	maxParallel := fs.Int("max-parallel", 8, "concurrent device probes (plans are identical for any value)")
	var chaosProfile chaosProfileFlag
	fs.Var(&chaosProfile, "chaos-profile", "fleet chaos scenario (one of "+
		strings.Join(nassim.ChaosProfileNames(), ", ")+"; default: clean fleet)")
	seed := fs.Uint64("seed", 7, "fleet seed: chaos schedules, desired state, and planted drift")
	budget := fs.Int("failure-budget", 0, "unreachable devices tolerated per cycle before the plan defers (0 = devices/8, negative = unlimited)")
	workers := fs.Int("workers", 0, "revalidation pipeline workers (0 = engine default)")
	planOut := fs.String("plan-out", "", "write the final cycle's plan ("+nassim.ReconcilePlanSchema+") to this file (\"-\" prints it)")
	report := fs.String("report", "", "write the run manifest (schema "+nassim.RunReportSchema+") to this file (\"-\" prints it)")
	timeout := fs.Duration("timeout", 0, "cancel the run after this long (0 = no deadline)")
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := nassim.ReconcilerConfig{
		Spec: nassim.FleetSpec{
			Devices: *devices, Scale: *scale, Seed: *seed,
		},
		Interval: *interval, MaxParallel: *maxParallel,
		FailureBudget: *budget, Workers: *workers,
	}
	for _, v := range strings.Split(*vendors, ",") {
		if v = strings.TrimSpace(v); v != "" {
			cfg.Spec.Vendors = append(cfg.Spec.Vendors, v)
		}
	}
	if chaosProfile.name != "" {
		sc, err := nassim.FleetScenarioByName(chaosProfile.name)
		if err != nil {
			return err // unreachable: Set validated the name at parse time
		}
		cfg.Spec.Scenario = sc
	}

	var last *nassim.ReconcileCycle
	ran, invalidated := 0, 0
	show := func(cr *nassim.ReconcileCycle) {
		last = cr
		ran++
		invalidated += cr.Invalidated
		fmt.Printf("cycle %d (%v): converged=%d drifted=%d degraded=%d unreachable=%d"+
			" actions=%d cache_hit=%.0f%% probe_p50=%v p99=%v",
			cr.Cycle, cr.Wall.Round(time.Millisecond),
			cr.Health[nassim.FleetConverged], cr.Health[nassim.FleetDrifted],
			cr.Health[nassim.FleetDegraded], cr.Health[nassim.FleetUnreachable],
			len(cr.Plan.Actions), 100*cr.CacheHitRatio(),
			cr.ProbeP50.Round(time.Millisecond), cr.ProbeP99.Round(time.Millisecond))
		if cr.Invalidated > 0 {
			fmt.Printf(" invalidated=%d", cr.Invalidated)
		}
		if cr.Plan.Deferred {
			fmt.Print(" PLAN-DEFERRED")
		}
		fmt.Println()
	}
	if *cycles <= 0 {
		cfg.OnCycle = show
	}

	recorder := nassim.NewReconcileRecorder()
	r, err := nassim.NewFleetReconciler(ctx, cfg)
	if err != nil {
		return err
	}
	defer r.Close()

	if *cycles <= 0 {
		if err := r.Run(ctx); err != nil && err != context.Canceled {
			return err
		}
	} else {
		for c := 0; c < *cycles; c++ {
			cr, err := r.RunCycle(ctx)
			if err != nil {
				return err
			}
			show(cr)
		}
	}
	if last == nil {
		return fmt.Errorf("reconcile: no cycle completed")
	}

	if *planOut != "" {
		data, err := last.Plan.Encode()
		if err != nil {
			return err
		}
		if *planOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			return err
		} else {
			fmt.Printf("wrote plan to %s\n", *planOut)
		}
	}
	if *report != "" {
		manifest := recorder.Build(cfg, last, ran, invalidated)
		fmt.Println("manifest:", manifest.Summary())
		if *report == "-" {
			data, err := manifest.MarshalIndent()
			if err != nil {
				return err
			}
			os.Stdout.Write(data)
		} else if err := manifest.WriteFile(*report); err != nil {
			return err
		} else {
			fmt.Printf("wrote run manifest to %s\n", *report)
		}
	}
	return nil
}
