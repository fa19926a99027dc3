package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"prochecker/internal/obs"
)

// expectedJSON holds the known answers every run is checked against.
//
//go:embed expected.json
var expectedJSON []byte

// expected is expectedJSON decoded: per profile, the paper's Table I
// cells for P1–P3 and I1–I6 (true = detected); per profile, the verdict
// of each campaign property.
var expected struct {
	TableI   map[string]map[string]bool   `json:"table1"`
	Campaign map[string]map[string]string `json:"campaign"`
}

func init() {
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err)) // embedded at build time
	}
}

// childMain runs one unit of work in this fresh process and prints its
// result as one JSON line.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	mode := fs.String("mode", "", "setup | check | campaign")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	traced := fs.Bool("traced", false, "attach an observer")
	traceID := fs.String("trace-id", "", "identifier shared by the run's spans")
	until := fs.Int64("until", 0, "campaign deadline, Unix nanoseconds")
	first := fs.Int("first", 0, "run index of the process's first cold campaign")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", *name)
		return 2
	}
	ctx := context.Background()
	var out any
	var err error
	switch {
	case *mode == "setup" && !w.campaign:
		out, err = setupChild(ctx, w.impl)
	case *mode == "check" && !w.campaign:
		out, err = checkChild(ctx, w.impl, *traced, *traceID)
	case *mode == "setup" && w.campaign:
		out, err = serviceSetupChild(ctx)
	case *mode == "campaign" && w.campaign:
		out, err = campaignChild(ctx, *seed, *first, *traced, *traceID, time.Unix(0, *until))
	default:
		err = fmt.Errorf("mode %q does not apply to %s", *mode, *name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s/%s: %v\n", *name, *mode, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// writeTrace writes a traced process's spans and registry, kept in
// memory until now, under .bench_build/traces/<trace id>/.
func writeTrace(traceID string, o *obs.Observer) error {
	dir := filepath.Join(buildDir, "traces", traceID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	m := o.Manifest()
	m.Config = map[string]string{"trace_id": traceID}
	return m.WriteFile(filepath.Join(dir, strconv.Itoa(os.Getpid())+".json"))
}
