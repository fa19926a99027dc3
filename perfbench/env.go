package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment identifies what a result set was measured on. Two sets
// are comparable only when their environments match. The source digest
// names the code: the benchmark runs from checkouts that are not git
// repositories, and a commit that changes no source is the same program.
type environment struct {
	SourceDigest string `json:"source_digest"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Workers      string `json:"workers"`
}

func collectEnv() (environment, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return environment{}, fmt.Errorf("hashing sources: %w", err)
	}
	return environment{
		SourceDigest: digest,
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      fmt.Sprintf("check:%d analysis; campaign:%d jobs x %d analysis", workers, workers, 1),
	}, nil
}

// sourceDigest hashes every Go source and module file under root, so a
// result set names the code it measured even in a checkout that is not
// a git repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".json") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cpuTicks reads the machine's CPU time from /proc/stat: the ticks the
// hypervisor stole from this machine's virtual CPUs and all ticks. A
// set whose runs saw much steal was measured on a busy host. It reports
// zeros where /proc/stat cannot be read.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := strings.Fields(string(line))
	// user nice system idle iowait irq softirq steal; guest time that
	// follows is already counted in user and nice.
	for i := 1; i < len(fields) && i <= 8; i++ {
		var v float64
		fmt.Sscan(fields[i], &v) //nolint:errcheck // a field that does not parse counts 0
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// setRecord is one run's line in its result set.
type setRecord struct {
	Env      environment       `json:"env"`
	Traced   bool              `json:"traced"`
	Digest   string            `json:"digest"`
	Counters map[string]int64  `json:"counters"`
	Metrics  map[string]metric `json:"metrics"`
}

// checkSet appends this run to the result set of its workload and code
// version and compares it with the set's first run: the environment
// and the verdict digest must match, and the exact counters must repeat
// exactly between runs of the same trace mode. A set lives under
// .bench_build/sets/<source digest>/ for as long as the checkout does.
func checkSet(env environment, name string, traced bool, out *outcome) error {
	dir := filepath.Join(buildDir, "sets", env.SourceDigest)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result set: %w", err)
	}
	path := filepath.Join(dir, name+".jsonl")
	prior, err := readSet(path)
	if err != nil {
		return err
	}
	rec := setRecord{Env: env, Traced: traced, Digest: out.digest, Counters: out.counters, Metrics: out.metrics}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("result set: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("result set: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result set: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("result set: %w", err)
	}

	if len(prior) == 0 {
		return nil
	}
	first := prior[0]
	if first.Env != env {
		return fmt.Errorf("environment %+v differs from the set's first run %+v", env, first.Env)
	}
	if first.Digest != out.digest {
		return fmt.Errorf("verdict digest %s differs from the set's first run %s", out.digest, first.Digest)
	}
	for _, p := range prior {
		if p.Traced != traced {
			continue
		}
		for k, v := range p.Counters {
			if out.counters[k] != v {
				return fmt.Errorf("counter %s = %d, the set's first run had %d", k, out.counters[k], v)
			}
		}
		break
	}
	return nil
}

func readSet(path string) ([]setRecord, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("result set: %w", err)
	}
	var out []setRecord
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec setRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("result set %s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
