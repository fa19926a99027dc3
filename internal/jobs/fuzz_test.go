package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"prochecker/internal/obs"
)

// Native fuzz targets for the service's on-disk decoders: run
// continuously with `go test -fuzz=FuzzDecodeRecord ./internal/jobs`
// (or FuzzReadFlight, FuzzStoreGet); the seed corpus runs as part of
// the normal test suite.

// FuzzDecodeRecord: the WAL line decoder accepts exactly the lines the
// encoder writes — an accepted line re-encodes byte for byte.
func FuzzDecodeRecord(f *testing.F) {
	for i := 1; i <= 3; i++ {
		line, err := encodeRecord(walRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		// The same checksum in uppercase hex is not what the encoder
		// writes.
		f.Add(append(bytes.ToUpper(line[:8]), line[8:]...))
	}
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, ok := decodeRecord(line)
		if !ok {
			return
		}
		again, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encoding accepted record %+v: %v", rec, err)
		}
		if !bytes.Equal(again, line) {
			t.Fatalf("accepted line does not re-encode identically:\n  in  %q\n  out %q", line, again)
		}
	})
}

// FuzzReadFlight: no recording bytes, however damaged, panic the
// flight reader.
func FuzzReadFlight(f *testing.F) {
	f.Add(sealedFlight(f))
	f.Add([]byte("{\"type\":\"flight_end\",\"events\":0,\"crc\":\"00000000\"}\n"))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "flight.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ReadFlight(path) //nolint:errcheck // only panics matter here
	})
}

// sealedFlight records and seals one job's flight, returning its bytes.
func sealedFlight(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	reg := obs.NewRegistry()
	bus := obs.NewBus(64, reg)
	fr, err := NewFlightRecorder(dir, bus, reg)
	if err != nil {
		tb.Fatal(err)
	}
	defer fr.Close()
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-0001", Name: "running"})
	bus.Publish(obs.BusEvent{Type: "progress", Scope: "j-0001", Name: "mc.level", Value: 3})
	bus.Publish(obs.BusEvent{Type: "job", Scope: "j-0001", Name: "done"})
	waitForSealed(tb, reg, 1)
	data, err := os.ReadFile(FlightPath(dir, "j-0001"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzStoreGet: no stored result file, however damaged, panics Get,
// and Get serves exactly the bytes Put writes — an accepted entry
// re-marshals canonically to the same bytes under its own key; any
// other file is quarantined.
func FuzzStoreGet(f *testing.F) {
	spec := Spec{Impl: "srsLTE", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06", "V04"}}
	key := spec.Key()
	for _, res := range []*Result{
		{SchemaVersion: ResultSchemaVersion, Key: key, Spec: spec},
		{
			SchemaVersion: ResultSchemaVersion, Key: key, Spec: spec,
			Lint: &LintSummary{Warnings: 3, Infos: 1, Codes: []string{"PC101", "PC104"}},
			Verdicts: []Verdict{
				{ID: "S06", Class: "authentication", AttackFound: true, Detail: "attack in 2 step(s) <replay> & \"stale\""},
				{ID: "V04", Class: "privacy", Verified: true, Vacuous: true, Detail: "vacuously holds"},
			},
		},
	} {
		s, err := OpenStore(f.TempDir(), 0)
		if err != nil {
			f.Fatal(err)
		}
		b, err := s.Put(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(bytes.TrimSuffix(b, []byte("\n")))
		f.Add(bytes.ReplaceAll(b, []byte("  "), []byte("\t")))
	}
	f.Add([]byte(`{"schema_version": 2}`))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, res, ok := s.Get(key)
		if !ok {
			if s.Quarantined() != 1 {
				t.Fatalf("rejected entry not quarantined (quarantined = %d)", s.Quarantined())
			}
			if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
				t.Fatalf("rejected entry still in place: %v", err)
			}
			return
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("Get served %q, stored %q", b, data)
		}
		canon, err := res.MarshalCanonical()
		if err != nil {
			t.Fatalf("re-marshalling accepted entry: %v", err)
		}
		if !bytes.Equal(canon, data) || res.Key != key {
			t.Fatalf("accepted entry is not canonical under its key:\n  stored %q\n  canon  %q", data, canon)
		}
	})
}
