package jobs

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prochecker/internal/obs"
)

// waitForSealed polls until the recorder has sealed n flights (the
// recorder goroutine consumes the bus asynchronously).
func waitForSealed(t testing.TB, reg *obs.Registry, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("flight.sealed").Value() >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("recorder never sealed %d flight(s) (sealed=%d)",
		n, reg.Counter("flight.sealed").Value())
}

func TestFlightRecorderSealAndReplay(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bus := obs.NewBus(64, reg)
	fr, err := NewFlightRecorder(dir, bus, reg)
	if err != nil {
		t.Fatalf("NewFlightRecorder: %v", err)
	}
	defer fr.Close()

	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-0001", Name: "queued"})
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-0001", Name: "running"})
	bus.Publish(obs.BusEvent{Type: "progress", Scope: "j-0001", Name: "mc.level", Value: 3})
	bus.Publish(obs.BusEvent{Type: "span_end", Scope: "j-0001", Name: "job.run", DurMS: 12.5})
	bus.Publish(obs.BusEvent{Type: "job", Scope: "other", Name: "running"}) // not a job scope
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-0001", Name: "done"})
	waitForSealed(t, reg, 1)

	events, err := ReadFlight(FlightPath(dir, "j-0001"))
	if err != nil {
		t.Fatalf("ReadFlight: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("replayed %d events, want 5", len(events))
	}
	wantNames := []string{"queued", "running", "mc.level", "job.run", "done"}
	for i, ev := range events {
		if ev.Scope != "j-0001" {
			t.Errorf("event %d has scope %q, want j-0001", i, ev.Scope)
		}
		if ev.Name != wantNames[i] {
			t.Errorf("event %d is %q, want %q (bus order must be preserved)", i, ev.Name, wantNames[i])
		}
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Errorf("event %d seq %d not increasing after %d", i, ev.Seq, events[i-1].Seq)
		}
	}
	if got := reg.Counter("flight.events_recorded").Value(); got != 5 {
		t.Errorf("flight.events_recorded = %d, want 5", got)
	}
	if _, err := os.Stat(FlightPath(dir, "other")); !os.IsNotExist(err) {
		t.Errorf("non-job scope grew a flight file (stat err %v)", err)
	}
}

func TestFlightRecorderSeparatesJobs(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bus := obs.NewBus(64, reg)
	fr, err := NewFlightRecorder(dir, bus, reg)
	if err != nil {
		t.Fatalf("NewFlightRecorder: %v", err)
	}
	defer fr.Close()

	for _, id := range []string{"j-a", "j-b"} {
		bus.Publish(obs.BusEvent{Type: "job", Scope: id, Name: "running"})
		bus.Publish(obs.BusEvent{Type: "job", Scope: id, Name: "done"})
	}
	waitForSealed(t, reg, 2)

	for _, id := range []string{"j-a", "j-b"} {
		events, err := ReadFlight(FlightPath(dir, id))
		if err != nil {
			t.Fatalf("ReadFlight(%s): %v", id, err)
		}
		if len(events) != 2 {
			t.Fatalf("flight %s has %d events, want 2", id, len(events))
		}
		for _, ev := range events {
			if ev.Scope != id {
				t.Fatalf("flight %s contains foreign event scope %q", id, ev.Scope)
			}
		}
	}
}

func TestFlightRecorderCloseDrainsBacklog(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bus := obs.NewBus(64, reg)
	fr, err := NewFlightRecorder(dir, bus, reg)
	if err != nil {
		t.Fatalf("NewFlightRecorder: %v", err)
	}
	// Publish and immediately close: the terminal event may still be in
	// the ring, unconsumed — Close must drain it and seal the flight.
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-lastgasp", Name: "running"})
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-lastgasp", Name: "failed"})
	fr.Close()
	fr.Close() // idempotent

	events, err := ReadFlight(FlightPath(dir, "j-lastgasp"))
	if err != nil {
		t.Fatalf("ReadFlight after Close: %v", err)
	}
	if len(events) != 2 || events[1].Name != "failed" {
		t.Fatalf("drained flight = %+v, want running+failed", events)
	}
}

func TestReadFlightDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bus := obs.NewBus(64, reg)
	fr, err := NewFlightRecorder(dir, bus, reg)
	if err != nil {
		t.Fatalf("NewFlightRecorder: %v", err)
	}
	// No terminal event: the job "crashed" mid-run. Close flushes the
	// partial recording without a footer.
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-crash", Name: "running"})
	bus.Publish(obs.BusEvent{Type: "progress", Scope: "j-crash", Name: "mc.level", Value: 1})
	fr.Close()

	_, err = ReadFlight(FlightPath(dir, "j-crash"))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("ReadFlight on unsealed file: %v, want truncation error", err)
	}
}

func TestReadFlightDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bus := obs.NewBus(64, reg)
	fr, err := NewFlightRecorder(dir, bus, reg)
	if err != nil {
		t.Fatalf("NewFlightRecorder: %v", err)
	}
	defer fr.Close()
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-rot", Name: "running"})
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-rot", Name: "done"})
	waitForSealed(t, reg, 1)

	path := FlightPath(dir, "j-rot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading sealed flight: %v", err)
	}
	// Flip one byte inside the first event line (bit rot).
	idx := 20
	corrupted := append([]byte(nil), data...)
	corrupted[idx] ^= 0x01
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatalf("writing corrupted flight: %v", err)
	}

	_, err = ReadFlight(path)
	if err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("ReadFlight on corrupted file: %v, want crc mismatch", err)
	}
}

func TestReadFlightMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadFlight(filepath.Join(dir, "nope.jsonl")); err == nil {
		t.Fatal("ReadFlight on missing file succeeded")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlight(empty); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("ReadFlight on empty file: %v, want empty-recording error", err)
	}
}

// TestServiceRecordsFlights exercises the wired path: a real Service
// with Events+FlightDir configured records and seals its jobs' flights.
func TestServiceRecordsFlights(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bus := obs.NewBus(256, reg)
	fr := &fakeRunner{}
	svc, err := New(Config{
		Runner:    fr.run,
		Workers:   2,
		Metrics:   reg,
		Events:    bus,
		FlightDir: filepath.Join(dir, "flight"),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	job, err := svc.Submit(Spec{Impl: "srsLTE", Properties: []string{"S06"}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, svc, job.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	events, err := ReadFlight(FlightPath(filepath.Join(dir, "flight"), job.ID))
	if err != nil {
		t.Fatalf("ReadFlight: %v", err)
	}
	var sawRunning, sawTerminal bool
	for _, ev := range events {
		if ev.Type == "job" && ev.Name == string(StateRunning) {
			sawRunning = true
		}
		if ev.Type == "job" && State(ev.Name).Terminal() {
			sawTerminal = true
		}
	}
	if !sawRunning || !sawTerminal {
		t.Fatalf("flight missing lifecycle (running=%v terminal=%v): %+v", sawRunning, sawTerminal, events)
	}
}
