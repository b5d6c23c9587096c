// Command dynamosim runs a single simulation on a colored substrate — one
// of the paper's tori or a general graph — and prints the outcome.  It is a
// thin CLI over the public repro/dynmon package.
//
// A run is described either by flags or, declaratively, by a spec file (the
// JSON form of dynmon.FileSpec: system + initial + run).  -emit-spec prints
// the spec an invocation's flags denote, so any flag run can be frozen into
// a reproducible file:
//
//	dynamosim -topology mesh -rows 9 -cols 9 -colors 5 -config minimum -emit-spec > run.json
//	dynamosim -spec run.json
//
// Ensembles run from a batch spec (the JSON form of dynmon.BatchSpec: one
// system + run section and a list of initial items).  Each item prints as
// one NDJSON line {"digest":..., "result":...} whose result bytes equal the
// single-run -spec -result-json output for that item, with eligible
// two-color ensembles stepped 64 replicas per word on the bit-sliced tier:
//
//	dynamosim -batch-spec batch.json
//
// Flag examples:
//
//	dynamosim -topology mesh -rows 9 -cols 9 -colors 5 -config minimum -render
//	dynamosim -topology cordalis -rows 5 -cols 5 -colors 6 -config minimum -timing
//	dynamosim -topology mesh -rows 12 -cols 12 -colors 4 -config random -seed 7
//	dynamosim -topology mesh -rows 6 -cols 6 -colors 2 -config cross -rule pb
//	dynamosim -topology mesh -rows 16 -cols 16 -config minimum -animate -timeout 5s
//
// General-graph runs replace the topology with a generated graph (the rule
// defaults to the degree-aware generalized-smp) and seed by hubs, at
// random, or with the greedy target-set baseline:
//
//	dynamosim -graph ba -graph-n 1000 -graph-m 2 -colors 2 -config hubs:16
//	dynamosim -graph ws -graph-n 500 -graph-k 6 -graph-beta 0.1 -colors 2 -config random:25 -seed 3
//	dynamosim -graph ba -graph-n 200 -graph-m 2 -colors 2 -rule threshold -config greedy:8
//
// Time-varying runs mask link availability per round on any substrate:
//
//	dynamosim -topology mesh -rows 9 -cols 9 -config minimum -availability 0.9 -max-rounds 3000
//
// Long runs migrate across processes through checkpoints: -checkpoint-after
// streams the run, writes a checkpoint at that round and exits; -resume
// continues it bit-identically to an uninterrupted run.
//
//	dynamosim -topology mesh -rows 16 -cols 16 -config minimum -checkpoint-after 5 -checkpoint cp.json
//	dynamosim -resume cp.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/dynmon"
	"repro/internal/color"
)

func main() {
	var (
		specFile  = flag.String("spec", "", "run the spec file (JSON dynmon.FileSpec) instead of assembling one from flags")
		batchFile = flag.String("batch-spec", "", "run the batch spec file (JSON dynmon.BatchSpec: system + run + items) and print one NDJSON line per item")
		workers   = flag.Int("workers", 0, "worker-pool bound for -batch-spec (0 = GOMAXPROCS)")
		emitSpec  = flag.Bool("emit-spec", false, "print the spec this invocation denotes and exit")
		topology  = flag.String("topology", "mesh", "torus topology: "+strings.Join(dynmon.TopologyNames(), ", "))
		rows      = flag.Int("rows", 9, "number of rows (m)")
		cols      = flag.Int("cols", 9, "number of columns (n)")
		graphKind = flag.String("graph", "", "general-graph substrate instead of a torus: ba (Barabási–Albert), ws (Watts–Strogatz), er (Erdős–Rényi), or any registered generator name")
		graphN    = flag.Int("graph-n", 400, "graph vertex count")
		graphM    = flag.Int("graph-m", 2, "Barabási–Albert attachments per vertex")
		graphK    = flag.Int("graph-k", 4, "Watts–Strogatz ring degree (even)")
		graphBeta = flag.Float64("graph-beta", 0.1, "Watts–Strogatz rewiring probability")
		graphP    = flag.Float64("graph-p", 0.02, "Erdős–Rényi edge probability")
		colors    = flag.Int("colors", 5, "palette size |C|")
		config    = flag.String("config", "minimum", "initial configuration: minimum, cross, comb, random, blocked, frozen (tori); hubs[:size], random[:size], greedy[:size] (graphs)")
		ruleName  = flag.String("rule", "smp", "recoloring rule: "+strings.Join(dynmon.RuleNames(), ", "))
		target    = flag.Int("target", 1, "target color k")
		seed      = flag.Uint64("seed", 1, "random seed for graph generation and random configurations")
		avail     = flag.Float64("availability", 1, "per-round Bernoulli link availability (< 1 runs the time-varying mode)")
		maxRounds = flag.Int("max-rounds", 0, "round budget (0 = substrate default)")
		render    = flag.Bool("render", false, "render the initial and final colorings (tori only)")
		animate   = flag.Bool("animate", false, "render the configuration after every round (tori only)")
		timing    = flag.Bool("timing", false, "print the per-vertex recoloring-time matrix (Figures 5/6 format, tori only)")
		timeout   = flag.Duration("timeout", 0, "abort the simulation after this duration (0 = no limit)")
		cpAfter   = flag.Int("checkpoint-after", 0, "stream the run, write a checkpoint after this round and exit")
		cpFile    = flag.String("checkpoint", "checkpoint.json", "checkpoint file written by -checkpoint-after")
		resume    = flag.String("resume", "", "resume the run checkpointed in this file (requires the checkpoint to carry its system spec)")
		resJSON   = flag.Bool("result-json", false, "print the terminal Result as one compact JSON line instead of the human report — the exact bytes dynmond streams and caches for the same spec")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *resume != "" {
		resumeRun(ctx, *resume, *resJSON)
		return
	}
	if *batchFile != "" {
		runBatchSpec(ctx, *batchFile, *workers)
		return
	}

	var fs *dynmon.FileSpec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		fs, err = dynmon.ParseFileSpec(data)
		if err != nil {
			fatal(err)
		}
	} else {
		fs = fileSpecFromFlags(*graphKind, *topology, *rows, *cols, *graphN, *graphM, *graphK, *graphBeta, *graphP,
			*colors, *ruleName, *config, color.Color(*target), *seed, *avail, *maxRounds)
	}

	if *emitSpec {
		out, err := fs.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}

	// Build through the one shared path (FileSpec.Build) so the run this
	// invocation denotes is byte-identical to what every other spec consumer
	// — dynamoexp, the dynserve HTTP server — would execute.
	sys, cons, tgt, err := fs.Build()
	if err != nil {
		fatal(err)
	}

	if *cpAfter > 0 {
		checkpointRun(ctx, sys, cons.Coloring, fs.Run, *cpAfter, *cpFile)
		return
	}

	runOpts := []dynmon.RunOption{dynmon.WithRunSpec(fs.Run)}
	if *resJSON {
		runResultJSON(ctx, sys, cons, runOpts)
		return
	}
	if sys.Graph() != nil {
		runGraph(ctx, sys, cons, tgt, runOpts)
		return
	}
	runTorus(ctx, sys, cons, tgt, runOpts, *render, *animate, *timing)
}

// runResultJSON runs the spec and prints the terminal Result as one compact
// JSON line — the machine-facing twin of the human reports, and the form CI
// diffs against the dynserve server's streamed/cached results.
func runResultJSON(ctx context.Context, sys *dynmon.System, cons *dynmon.Construction, runOpts []dynmon.RunOption) {
	res, err := sys.Run(ctx, cons.Coloring, runOpts...)
	if err != nil {
		fatal(err)
	}
	printResultJSON(res)
}

// printResultJSON writes res as one compact JSON line, json.Marshal(res)'s
// bytes written once by Result.AppendJSON.
func printResultJSON(res *dynmon.Result) {
	if _, err := os.Stdout.Write(append(res.AppendJSON(nil), '\n')); err != nil {
		fatal(err)
	}
}

// runBatchSpec runs every item of a batch spec over one shared Session —
// eligible ensembles ride the bit-sliced tier — and prints one NDJSON line
// per item, in item order: {"digest":..., "result":...}.  The result bytes
// are exactly what -spec <item> -result-json would print for the
// equivalent single-run spec file (pinned by the dynmond e2e smoke), and
// the digest is that spec file's content address.
func runBatchSpec(ctx context.Context, file string, workers int) {
	data, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	bs, err := dynmon.ParseBatchSpec(data)
	if err != nil {
		fatal(err)
	}
	digests := make([]string, len(bs.Items))
	for i := range bs.Items {
		if digests[i], err = bs.ItemDigest(i); err != nil {
			fatal(err)
		}
	}
	sys, initials, err := bs.Initials()
	if err != nil {
		fatal(err)
	}
	results, err := sys.NewSession(workers).RunBatch(ctx, initials, dynmon.WithRunSpec(bs.Run))
	if err != nil {
		fatal(err)
	}
	out := json.NewEncoder(os.Stdout)
	for i, res := range results {
		line := struct {
			Digest string         `json:"digest"`
			Result *dynmon.Result `json:"result"`
		}{digests[i], res}
		if err := out.Encode(line); err != nil {
			fatal(err)
		}
	}
}

// fileSpecFromFlags assembles the declarative form of a flag invocation —
// the same structure a -spec file carries, so the two entry points cannot
// diverge.
func fileSpecFromFlags(graphKind, topology string, rows, cols, graphN, graphM, graphK int, graphBeta, graphP float64,
	colors int, ruleName, config string, target color.Color, seed uint64, avail float64, maxRounds int) *dynmon.FileSpec {
	fs := &dynmon.FileSpec{}
	switch graphKind {
	case "":
		fs.System.Substrate.Topology = &dynmon.TopologySpec{Name: topology, Rows: rows, Cols: cols}
	case "ba", "barabasi-albert":
		fs.System.Substrate.Generator = &dynmon.GeneratorSpec{
			Name: "barabasi-albert", N: graphN, Params: map[string]float64{"m": float64(graphM)}, Seed: seed,
		}
	case "ws", "watts-strogatz":
		fs.System.Substrate.Generator = &dynmon.GeneratorSpec{
			Name: "watts-strogatz", N: graphN, Params: map[string]float64{"k": float64(graphK), "beta": graphBeta}, Seed: seed,
		}
	case "er", "erdos-renyi":
		fs.System.Substrate.Generator = &dynmon.GeneratorSpec{
			Name: "erdos-renyi", N: graphN, Params: map[string]float64{"p": graphP}, Seed: seed,
		}
	default:
		// Any other registered generator, with its default parameters.
		fs.System.Substrate.Generator = &dynmon.GeneratorSpec{Name: graphKind, N: graphN, Seed: seed}
	}
	fs.System.Colors = colors
	fs.System.Rule = ruleName

	name, size := splitConfig(config, 0)
	fs.Initial = &dynmon.InitialSpec{Config: name, Size: size, Seed: seed}

	fs.Run = dynmon.RunSpec{
		Target:                target,
		StopWhenMonochromatic: true,
		MaxRounds:             maxRounds,
	}
	if avail < 1 {
		fs.Run.TimeVarying = &dynmon.AvailabilitySpec{Model: "bernoulli", P: avail, Seed: seed}
	} else {
		fs.Run.DetectCycles = true
	}
	return fs
}

// runTorus drives a torus simulation and reports in the paper's terms.
func runTorus(ctx context.Context, sys *dynmon.System, cons *dynmon.Construction, k color.Color, runOpts []dynmon.RunOption, render, animate, timing bool) {
	initial := cons.Coloring
	d := sys.Dims()
	fmt.Printf("topology=%s size=%dx%d colors=%d rule=%s config=%s seed-size=%d lower-bound=%d\n",
		sys.Topology().Name(), d.Rows, d.Cols, sys.Palette().K, sys.Rule().Name(), cons.Name, initial.Count(k), sys.LowerBound())
	if render {
		fmt.Println("initial configuration:")
		fmt.Print(dynmon.Render(initial, k))
	}
	if animate {
		runOpts = append(runOpts, dynmon.WithObserver(dynmon.NewAnimator(os.Stdout, k)))
	}
	res, err := sys.Run(ctx, initial, runOpts...)
	if err != nil {
		rounds := 0
		if res != nil {
			rounds = res.Rounds
		}
		fmt.Printf("simulation aborted after %d rounds: %v\n", rounds, err)
		os.Exit(1)
	}

	fmt.Println(sys.ReportFor(cons, res).Summary())
	if render {
		fmt.Println("final configuration:")
		fmt.Print(dynmon.Render(res.Final, k))
	}
	if timing {
		_, rendered := sys.TimingMatrix(initial, k)
		fmt.Println("recoloring-time matrix (0 = seed, · = never):")
		fmt.Print(rendered)
	}
}

// runGraph drives a general-graph simulation and reports the spread.
func runGraph(ctx context.Context, sys *dynmon.System, cons *dynmon.Construction, k color.Color, runOpts []dynmon.RunOption) {
	g := sys.Graph()
	initial := cons.Coloring
	fmt.Printf("graph n=%d edges=%d max-degree=%d colors=%d rule=%s config=%s seed-size=%d\n",
		g.N(), g.EdgeCount(), g.MaxDegree(), sys.Palette().K, sys.Rule().Name(), cons.Name, initial.Count(k))
	res, err := sys.Run(ctx, initial, runOpts...)
	if err != nil {
		rounds := 0
		if res != nil {
			rounds = res.Rounds
		}
		fmt.Printf("simulation aborted after %d rounds: %v\n", rounds, err)
		os.Exit(1)
	}
	fmt.Printf("rounds=%d kernel=%s fixed-point=%v monochromatic=%v activated=%d/%d (%.2f)\n",
		res.Rounds, res.Kernel, res.FixedPoint, res.Monochromatic,
		res.Final.Count(k), g.N(), float64(res.Final.Count(k))/float64(g.N()))
}

// checkpointRun streams the run, snapshots it after the given round and
// writes the checkpoint file — the "migrate a long run" entry point.
func checkpointRun(ctx context.Context, sys *dynmon.System, initial *dynmon.Coloring, run dynmon.RunSpec, after int, file string) {
	for st, err := range sys.Steps(ctx, initial, dynmon.WithRunSpec(run)) {
		if err != nil {
			fatal(err)
		}
		if st.Round() < after {
			if st.Done() {
				fmt.Printf("run finished on its own at round %d, before the requested checkpoint round %d; nothing to checkpoint\n", st.Round(), after)
				return
			}
			continue
		}
		cp, err := st.Checkpoint()
		if err != nil {
			fatal(err)
		}
		out, err := cp.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(file, out, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpointed at round %d -> %s (resume with -resume %s)\n", st.Round(), file, file)
		return
	}
}

// resumeRun continues a checkpointed run; the checkpoint must carry its
// system spec (checkpoints written by this tool do).
func resumeRun(ctx context.Context, file string, resJSON bool) {
	data, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	cp, err := dynmon.ParseCheckpoint(data)
	if err != nil {
		fatal(err)
	}
	if cp.System == nil {
		fatal(fmt.Errorf("checkpoint %s carries no system spec; resume it in the process that owns the system", file))
	}
	sys, err := cp.System.New()
	if err != nil {
		fatal(err)
	}
	res, err := sys.Resume(ctx, cp)
	if err != nil {
		fatal(err)
	}
	if resJSON {
		printResultJSON(res)
		return
	}
	fmt.Printf("resumed at round %d on %s\n", cp.Round+1, sys)
	fmt.Printf("rounds=%d kernel=%s fixed-point=%v cycle=%v monochromatic=%v final-color=%v\n",
		res.Rounds, res.Kernel, res.FixedPoint, res.Cycle, res.Monochromatic, res.FinalColor)
}

// splitConfig parses "name:size" with a default size.
func splitConfig(config string, defaultSize int) (string, int) {
	name, sizeStr, found := strings.Cut(config, ":")
	if !found {
		return name, defaultSize
	}
	var size int
	if _, err := fmt.Sscanf(sizeStr, "%d", &size); err != nil || size < 1 {
		fatal(fmt.Errorf("bad config size %q", sizeStr))
	}
	return name, size
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dynamosim:", err)
	os.Exit(1)
}
