package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"prochecker/internal/obs"
)

// FlightRecorder tails the event bus and demultiplexes job-scoped
// events into one JSONL file per job — the job's "flight": lifecycle
// transitions, every span the runner opened and closed, and per-level
// exploration progress, in bus order. When the job reaches a terminal
// state the file is sealed with a CRC32 footer line, so a post-mortem
// (why was j-0042 quarantined?) replays the recording instead of
// re-running the job. Files for jobs that never terminate (process
// crash) are left unsealed; ReadFlight reports them as truncated.
type FlightRecorder struct {
	dir string
	reg *obs.Registry
	sub *obs.Subscription

	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once

	open map[string]*flightFile // job id -> in-progress recording
}

// flightFile is one job's open recording.
type flightFile struct {
	f      *os.File
	w      *bufio.Writer
	crc    uint32 // running CRC32 over every event line written
	events int
}

// flightFooter is the sealing line of a completed flight: Events
// counts the event lines above it and CRC is the IEEE CRC32 of their
// bytes (newlines included).
type flightFooter struct {
	Type   string `json:"type"`
	Events int    `json:"events"`
	CRC    string `json:"crc"`
}

// flightFooterType tags the footer line.
const flightFooterType = "flight_end"

// NewFlightRecorder starts recording job-scoped bus events (scopes of
// the service's "j-NNNN" shape) under dir, one file per job. Only
// events published after the recorder starts are recorded.
func NewFlightRecorder(dir string, bus *obs.Bus, reg *obs.Registry) (*FlightRecorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating flight dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fr := &FlightRecorder{
		dir:    dir,
		reg:    reg,
		sub:    bus.Subscribe(bus.Seq() + 1),
		cancel: cancel,
		done:   make(chan struct{}),
		open:   make(map[string]*flightFile),
	}
	go fr.loop(ctx)
	return fr, nil
}

// FlightPath is the recording location for one job under dir.
func FlightPath(dir, jobID string) string {
	return filepath.Join(dir, jobID+".jsonl")
}

// loop consumes the bus until cancelled, then drains whatever the
// ring still holds so terminal events published just before Close
// still seal their flights.
func (fr *FlightRecorder) loop(ctx context.Context) {
	defer close(fr.done)
	for {
		ev, err := fr.sub.Next(ctx)
		if err != nil {
			break
		}
		fr.record(ev)
	}
	for {
		ev, ok := fr.sub.TryNext()
		if !ok {
			break
		}
		fr.record(ev)
	}
	fr.sub.Close()
	for id, ff := range fr.open {
		// Unsealed: the job never terminated. Flush what we have; the
		// missing footer marks the recording truncated.
		ff.w.Flush() //nolint:errcheck // best effort at shutdown
		ff.f.Close() //nolint:errcheck // best effort at shutdown
		delete(fr.open, id)
	}
}

// record routes one bus event into its job's file. Only the recorder
// goroutine touches fr.open, so no locking is needed.
func (fr *FlightRecorder) record(ev obs.BusEvent) {
	scope := ev.Scope
	if !strings.HasPrefix(scope, "j-") {
		return
	}
	ff := fr.open[scope]
	if ff == nil {
		f, err := os.OpenFile(FlightPath(fr.dir, scope), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			fr.reg.Counter("flight.write_errors").Inc()
			return
		}
		ff = &flightFile{f: f, w: bufio.NewWriter(f)}
		fr.open[scope] = ff
	}
	line, err := json.Marshal(ev)
	if err != nil {
		fr.reg.Counter("flight.write_errors").Inc()
		return
	}
	line = append(line, '\n')
	if _, err := ff.w.Write(line); err != nil {
		fr.reg.Counter("flight.write_errors").Inc()
		return
	}
	ff.crc = crc32.Update(ff.crc, crc32.IEEETable, line)
	ff.events++
	fr.reg.Counter("flight.events_recorded").Inc()

	if ev.Type == "job" && State(ev.Name).Terminal() {
		fr.seal(scope, ff)
	}
}

// seal writes the CRC footer and closes the flight.
func (fr *FlightRecorder) seal(id string, ff *flightFile) {
	delete(fr.open, id)
	footer, err := json.Marshal(flightFooter{
		Type:   flightFooterType,
		Events: ff.events,
		CRC:    fmt.Sprintf("%08x", ff.crc),
	})
	if err == nil {
		_, err = ff.w.Write(append(footer, '\n'))
	}
	if err == nil {
		err = ff.w.Flush()
	}
	if cerr := ff.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fr.reg.Counter("flight.write_errors").Inc()
		return
	}
	fr.reg.Counter("flight.sealed").Inc()
}

// Close stops the recorder after draining the bus backlog, sealing
// every flight whose terminal event was already published. Nil-safe
// and idempotent.
func (fr *FlightRecorder) Close() {
	if fr == nil {
		return
	}
	fr.once.Do(func() {
		fr.cancel()
		<-fr.done
	})
}

// ReadFlight loads one sealed recording, verifying its footer: the
// event lines come back in bus order, and a missing or mismatched
// footer (truncated recording, bit rot) is an error.
func ReadFlight(path string) ([]obs.BusEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jobs: reading flight: %w", err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("jobs: flight %s: empty recording", path)
	}
	// Every line, the footer included, ends in a newline.
	lines := bytes.Split(data[:len(data)-1], []byte("\n"))
	var footer flightFooter
	last := lines[len(lines)-1]
	if data[len(data)-1] != '\n' || json.Unmarshal(last, &footer) != nil || footer.Type != flightFooterType {
		return nil, fmt.Errorf("jobs: flight %s: missing footer (truncated recording)", path)
	}
	body := data[:len(data)-len(last)-1]
	if sum := fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)); sum != footer.CRC {
		return nil, fmt.Errorf("jobs: flight %s: crc mismatch (footer %s, computed %s)", path, footer.CRC, sum)
	}
	events := make([]obs.BusEvent, 0, len(lines)-1)
	for i, line := range lines[:len(lines)-1] {
		var ev obs.BusEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("jobs: flight %s: line %d: %w", path, i+1, err)
		}
		events = append(events, ev)
	}
	if len(events) != footer.Events {
		return nil, fmt.Errorf("jobs: flight %s: footer counts %d events, file has %d", path, footer.Events, len(events))
	}
	return events, nil
}
