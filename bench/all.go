package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// ledgerEntry is one run as the ledger file records it.
type ledgerEntry struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	report
}

const ledgerFile = "ledger.json"

// runAll runs every workload untraced and traced, runs times over with
// seeds seed, seed+1, ..., each in a fresh process of this binary
// (clean store, clean heap, its own resident-set high-water mark),
// prints every metric, and writes out/ledger.json for --compare.
func runAll(seed int64, seconds, runs int) error {
	ws, err := loadWorkloads()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var entries []ledgerEntry
	failed := 0
	for n := 0; n < runs; n++ {
		for _, w := range ws {
			for _, traced := range []bool{false, true} {
				e := ledgerEntry{Workload: w.Name, Traced: traced, Seed: seed + int64(n), Seconds: seconds}
				trace := "0"
				if traced {
					trace = "1"
				}
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(e.Seed, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", trace)
				cmd.Stderr = os.Stderr
				out, runErr := cmd.Output()
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				if err := json.Unmarshal(lines[len(lines)-1], &e.report); err != nil {
					return fmt.Errorf("%s (trace %s): no report: %v (%v)", w.Name, trace, err, runErr)
				}
				if runErr != nil {
					failed++
				}
				entries = append(entries, e)
				fmt.Printf("%s seed=%d traced=%v attempted=%d failed=%d\n", w.Name, e.Seed, traced, e.Attempted, e.Failed)
				names := make([]string, 0, len(e.Metrics))
				for name := range e.Metrics {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					fmt.Printf("  %-34s %16.4f %s\n", name, e.Metrics[name].Value, e.Metrics[name].Unit)
				}
			}
		}
	}
	blob, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, ledgerFile), blob, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed their checks", failed)
	}
	return nil
}
