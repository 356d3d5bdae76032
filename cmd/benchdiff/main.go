// Command benchdiff is the bench regression gate: it compares committed
// BENCH_*.json baselines against freshly generated ones and exits non-zero
// when any metric worsened past its threshold.
//
//	benchdiff -baseline . -current out/                 # all BENCH_*.json pairs
//	benchdiff -baseline BENCH_mapper.json -current out/BENCH_mapper.json
//	benchdiff -baseline . -current out/ -json           # machine-readable report
//
// With directories, every BENCH_*.json in the baseline directory is paired
// with the file of the same name in the current directory; a baseline with
// no current counterpart fails the gate (a silently dropped benchmark is a
// regression too). Every file is a nassim-bench/v2 row list, and each
// baseline row gates the current row of the same name at its own
// direction, tolerance and floor; see internal/benchdiff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nassim/internal/benchdiff"
)

func main() {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	baseline := fs.String("baseline", "", "baseline BENCH_*.json file, or directory of them (required)")
	current := fs.String("current", "", "current BENCH_*.json file, or directory of them (required)")
	jsonOut := fs.Bool("json", false, "emit the comparison as JSON instead of a table")
	fs.Parse(os.Args[1:])
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		fs.Usage()
		os.Exit(2)
	}

	pairs, missing, err := pairUp(*baseline, *current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(pairs) == 0 && len(missing) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no BENCH_*.json baselines found in", *baseline)
		os.Exit(2)
	}

	type fileResult struct {
		File   string            `json:"file"`
		Result *benchdiff.Result `json:"result"`
	}
	var results []fileResult
	failed := len(missing) > 0
	for _, p := range pairs {
		base, err := os.ReadFile(p[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		cur, err := os.ReadFile(p[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		res, err := benchdiff.Compare(base, cur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", filepath.Base(p[0]), err)
			os.Exit(2)
		}
		results = append(results, fileResult{File: filepath.Base(p[0]), Result: res})
		if res.Failed() {
			failed = true
		}
	}

	if *jsonOut {
		doc := struct {
			Results      []fileResult `json:"results"`
			MissingFiles []string     `json:"missing_files,omitempty"`
			Failed       bool         `json:"failed"`
		}{results, missing, failed}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(&doc)
	} else {
		for _, fr := range results {
			fmt.Printf("%s:\n%s", fr.File, fr.Result.Table())
		}
		for _, f := range missing {
			fmt.Printf("%s: no current counterpart\n", f)
		}
		summary := "no regressions"
		if failed {
			summary = "REGRESSIONS FOUND"
		}
		fmt.Printf("benchdiff: %d file(s) compared: %s\n", len(results), summary)
	}
	if failed {
		os.Exit(1)
	}
}

// pairUp resolves the baseline/current arguments into file pairs. Both
// files, or both directories (paired by BENCH_*.json base name).
func pairUp(baseline, current string) (pairs [][2]string, missing []string, err error) {
	bi, err := os.Stat(baseline)
	if err != nil {
		return nil, nil, err
	}
	if !bi.IsDir() {
		ci, err := os.Stat(current)
		if err == nil && ci.IsDir() {
			current = filepath.Join(current, filepath.Base(baseline))
		}
		if _, err := os.Stat(current); err != nil {
			return nil, []string{filepath.Base(baseline)}, nil
		}
		return [][2]string{{baseline, current}}, nil, nil
	}
	ci, err := os.Stat(current)
	if err != nil {
		return nil, nil, err
	}
	if !ci.IsDir() {
		return nil, nil, fmt.Errorf("baseline %s is a directory but current %s is a file", baseline, current)
	}
	entries, err := os.ReadDir(baseline)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "BENCH_") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		cur := filepath.Join(current, n)
		if _, err := os.Stat(cur); err != nil {
			missing = append(missing, n)
			continue
		}
		pairs = append(pairs, [2]string{filepath.Join(baseline, n), cur})
	}
	return pairs, missing, nil
}
