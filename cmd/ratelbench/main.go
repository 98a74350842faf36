// Command ratelbench regenerates the paper's tables and figures from the
// calibrated simulator. Run with no arguments to list experiments, with
// experiment ids (e.g. "fig5a") to run some, or with "all". The -out flag
// additionally writes each experiment's output to <dir>/<id>.txt for
// archiving (EXPERIMENTS.md provenance).
//
// The "diff" subcommand compares two BENCH_*.json snapshots row by row
// (matched on bench+variant) and exits non-zero when any metric regressed
// beyond -tol; `make bench-gate` uses it as the snapshot-integrity gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ratel/internal/benchdiff"
	"ratel/internal/experiments"
)

func main() {
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	tol := flag.Float64("tol", 0.10, "relative tolerance for the diff subcommand (0.10 = 10%)")
	flag.Parse()
	args := flag.Args()

	if len(args) < 1 {
		fmt.Println("usage: ratelbench [-out dir] <experiment-id>...|all")
		fmt.Println("       ratelbench [-tol frac] diff <old.json> <new.json>")
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if args[0] == "diff" {
		if len(args) != 3 {
			fatal(fmt.Errorf("diff needs exactly two snapshot paths, got %d args", len(args)-1))
		}
		if err := runDiff(args[1], args[2], *tol); err != nil {
			fatal(err)
		}
		return
	}
	ids := args
	if args[0] == "all" {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	for _, id := range ids {
		if err := runOne(id, *outDir); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func runOne(id, outDir string) error {
	var w io.Writer = os.Stdout
	if outDir != "" {
		f, err := os.Create(filepath.Join(outDir, id+".txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	return experiments.Run(id, w)
}

func runDiff(oldPath, newPath string, tol float64) error {
	oldSnap, err := benchdiff.LoadFile(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := benchdiff.LoadFile(newPath)
	if err != nil {
		return err
	}
	rep := benchdiff.Diff(oldSnap, newSnap, tol)
	rep.Write(os.Stdout)
	return rep.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ratelbench:", err)
	os.Exit(1)
}
