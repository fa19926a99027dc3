package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"prochecker/internal/core/cegar"
	"prochecker/internal/core/props"
	"prochecker/internal/ue"
)

// update rewrites the golden verdict fixtures from the current code:
//
//	go test ./internal/report -run TestGoldenVerdicts -update
//
// A fixture may only change on purpose; the change that regenerates one
// names the cells that moved and why.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current verdicts")

// goldenCell is one property's pinned outcome on one profile: the
// verdict matrix cell plus everything the CEGAR loop did to reach it.
type goldenCell struct {
	ID          string   `json:"id"`
	Verdict     string   `json:"verdict"`
	Vacuous     bool     `json:"vacuous"`
	Iterations  int      `json:"iterations"`
	Refinements []string `json:"refinements"`
	States      int      `json:"states"`
	// Trace is the SHA-256 of the counterexample's JSON encoding; empty
	// when the verdict carries no attack trace.
	Trace string `json:"trace"`
}

// refinementLabel renders one refinement as "<kind> <rule>".
func refinementLabel(r cegar.Refinement) string {
	switch r.Kind {
	case cegar.PruneRule:
		return "prune " + r.Rule
	case cegar.GuardReplayOnObservation:
		return "guard-replay " + r.Rule
	default:
		return "unknown " + r.Rule
	}
}

func goldenCells(t *testing.T, verdicts []Verdict) []goldenCell {
	t.Helper()
	out := make([]goldenCell, len(verdicts))
	for i, v := range verdicts {
		c := goldenCell{
			ID:          v.PropertyID,
			Verdict:     verdictWord(v),
			Vacuous:     v.Vacuous,
			Iterations:  v.Iterations,
			Refinements: []string{},
			States:      v.States,
		}
		for _, r := range v.Refinements {
			c.Refinements = append(c.Refinements, refinementLabel(r))
		}
		if v.Attack != nil {
			raw, err := json.Marshal(v.Attack)
			if err != nil {
				t.Fatalf("encoding %s trace: %v", v.PropertyID, err)
			}
			sum := sha256.Sum256(raw)
			c.Trace = hex.EncodeToString(sum[:])
		}
		out[i] = c
	}
	return out
}

// TestGoldenVerdicts pins the whole verdict matrix — every catalogue
// property on every profile — byte for byte against
// testdata/golden/<profile>.json. Runner contract: each fixture is the
// full catalogue evaluated in catalogue order with the paper's threat
// configuration (NewEvaluator defaults), one JSON array of cells,
// two-space indented, trailing newline.
func TestGoldenVerdicts(t *testing.T) {
	for _, profile := range []ue.Profile{ue.ProfileConformant, ue.ProfileSRS, ue.ProfileOAI} {
		t.Run(profile.String(), func(t *testing.T) {
			verdicts, err := evaluator(t, profile).EvaluateAllContext(context.Background(), props.Catalogue())
			if err != nil {
				t.Fatalf("EvaluateAllContext: %v", err)
			}
			got, err := json.MarshalIndent(goldenCells(t, verdicts), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", profile.String()+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture (regenerate with -update): %v", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			var wantCells []goldenCell
			if err := json.Unmarshal(want, &wantCells); err != nil {
				t.Fatalf("fixture %s is malformed: %v", path, err)
			}
			gotCells := goldenCells(t, verdicts)
			if len(gotCells) != len(wantCells) {
				t.Fatalf("%d cells, fixture has %d", len(gotCells), len(wantCells))
			}
			for i := range gotCells {
				g, _ := json.Marshal(gotCells[i])
				w, _ := json.Marshal(wantCells[i])
				if !bytes.Equal(g, w) {
					t.Errorf("cell %s differs:\n got  %s\n want %s", gotCells[i].ID, g, w)
				}
			}
			t.Errorf("%s differs from the current verdicts", path)
		})
	}
}
