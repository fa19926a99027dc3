package report

import (
	"context"
	"strings"
	"testing"

	"prochecker/internal/core/props"
	"prochecker/internal/ue"
)

// evaluators are built once: model building runs the whole conformance +
// extraction pipeline.
var evalCache = map[ue.Profile]*Evaluator{}

func evaluator(t *testing.T, p ue.Profile) *Evaluator {
	t.Helper()
	if e, ok := evalCache[p]; ok {
		return e
	}
	m, err := BuildModel(p)
	if err != nil {
		t.Fatalf("BuildModel(%s): %v", p, err)
	}
	e := NewEvaluator(m)
	evalCache[p] = e
	return e
}

func verdict(t *testing.T, profile ue.Profile, propID string) Verdict {
	t.Helper()
	p, ok := props.ByID(propID)
	if !ok {
		t.Fatalf("property %s not found", propID)
	}
	v, err := evaluator(t, profile).Evaluate(p)
	if err != nil {
		t.Fatalf("Evaluate(%s, %s): %v", profile, propID, err)
	}
	return v
}

func TestBuildModelAllProfiles(t *testing.T) {
	for _, p := range []ue.Profile{ue.ProfileConformant, ue.ProfileSRS, ue.ProfileOAI} {
		m, err := BuildModel(p)
		if err != nil {
			t.Fatalf("BuildModel(%s): %v", p, err)
		}
		if m.Stats.Transitions < 10 {
			t.Errorf("%s: only %d transitions extracted", p, m.Stats.Transitions)
		}
		if len(m.Composed.System.Rules()) < 50 {
			t.Errorf("%s: only %d rules composed", p, len(m.Composed.System.Rules()))
		}
	}
}

// TestP1DetectedEverywhere: S06 is the paper's P1 property; the flaw is
// in the standard, so every implementation's model is vulnerable.
func TestP1DetectedEverywhere(t *testing.T) {
	for _, p := range []ue.Profile{ue.ProfileConformant, ue.ProfileSRS, ue.ProfileOAI} {
		v := verdict(t, p, "S06")
		if !v.Detected {
			t.Errorf("%s: P1 (S06) not detected: %s", p, v.Detail)
		}
	}
}

// TestI1DetectionMatchesTableI: broken replay protection is an
// implementation issue of the open-source stacks only.
func TestI1DetectionMatchesTableI(t *testing.T) {
	if v := verdict(t, ue.ProfileConformant, "S08"); v.Detected {
		t.Errorf("conformant: I1 (S08) falsely detected: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileSRS, "S08"); !v.Detected {
		t.Errorf("srs: I1 (S08) missed: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileOAI, "S08"); !v.Detected {
		t.Errorf("oai: I1 (S08) missed: %s", v.Detail)
	}
}

func TestI2OnlyOAI(t *testing.T) {
	if v := verdict(t, ue.ProfileConformant, "S09"); v.Detected {
		t.Errorf("conformant: I2 falsely detected: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileSRS, "S09"); v.Detected {
		t.Errorf("srs: I2 falsely detected: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileOAI, "S09"); !v.Detected {
		t.Errorf("oai: I2 missed: %s", v.Detail)
	}
}

func TestI3OnlySRS(t *testing.T) {
	if v := verdict(t, ue.ProfileSRS, "S07"); !v.Detected {
		t.Errorf("srs: I3 missed: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileOAI, "S07"); v.Detected {
		t.Errorf("oai: I3 falsely detected: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileConformant, "S07"); v.Detected {
		t.Errorf("conformant: I3 falsely detected: %s", v.Detail)
	}
}

func TestI4OnlySRS(t *testing.T) {
	if v := verdict(t, ue.ProfileSRS, "S16"); !v.Detected {
		t.Errorf("srs: I4 missed: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileConformant, "S16"); v.Detected {
		t.Errorf("conformant: I4 falsely detected: %s", v.Detail)
	}
}

func TestI5OnlyOAI(t *testing.T) {
	if v := verdict(t, ue.ProfileOAI, "V01"); !v.Detected {
		t.Errorf("oai: I5 missed: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileConformant, "V01"); v.Detected {
		t.Errorf("conformant: I5 falsely detected: %s", v.Detail)
	}
	if v := verdict(t, ue.ProfileSRS, "V01"); v.Detected {
		t.Errorf("srs: I5 falsely detected: %s", v.Detail)
	}
}

func TestP3DetectedViaResponseProperty(t *testing.T) {
	v := verdict(t, ue.ProfileConformant, "S19")
	if !v.Detected {
		t.Errorf("P3 (S19) not detected: %s", v.Detail)
	}
}

func TestCryptographicPropertiesVerified(t *testing.T) {
	// The CEGAR loop must discharge forgery properties on every profile.
	for _, id := range []string{"S13", "S14", "S15", "S33"} {
		for _, p := range []ue.Profile{ue.ProfileConformant, ue.ProfileSRS} {
			v := verdict(t, p, id)
			if v.Detected {
				t.Errorf("%s/%s: forgery property violated: %s", p, id, v.Detail)
			}
			if !v.Verified {
				t.Errorf("%s/%s: forgery property inconclusive: %s", p, id, v.Detail)
			}
		}
	}
}

func TestRenderTableII(t *testing.T) {
	out := RenderTableII()
	if !strings.Contains(out, "TABLE II") {
		t.Error("missing header")
	}
	if got := strings.Count(out, "\n    "); got != 14 {
		t.Errorf("rendered %d property texts, want 14", got)
	}
}

func TestRefinementHoldsForConformant(t *testing.T) {
	res, err := Refinement(ue.ProfileConformant)
	if err != nil {
		t.Fatalf("Refinement: %v", err)
	}
	if !res.Report.Refines() {
		t.Errorf("extracted model does not refine LTEInspector's: %v", res.Report.Problems())
	}
	// The extracted model must be strictly richer.
	if res.RefinedSize[3] <= res.CoarseSize[3] {
		t.Errorf("refined transitions %d not above coarse %d", res.RefinedSize[3], res.CoarseSize[3])
	}
	if len(res.Report.NewPredicates) == 0 {
		t.Error("no new predicates; data-level refinement missing")
	}
	out := RenderRefinement(res)
	if !strings.Contains(out, "refines: true") {
		t.Errorf("rendered refinement lacks verdict:\n%s", out)
	}
}

func TestRenderCoverage(t *testing.T) {
	out, err := RenderCoverage()
	if err != nil {
		t.Fatalf("RenderCoverage: %v", err)
	}
	for _, want := range []string{"conformant", "srsLTE", "OAI", "base suite"} {
		if !strings.Contains(out, want) {
			t.Errorf("coverage output missing %q", want)
		}
	}
}

func TestTableIAttackUniverse(t *testing.T) {
	rows := TableIAttacks()
	if len(rows) != 23 {
		t.Fatalf("Table I rows = %d, want 23 (9 new + 14 previous)", len(rows))
	}
	newCount := 0
	for _, r := range rows {
		if r.New {
			newCount++
		}
	}
	if newCount != 9 {
		t.Errorf("new attacks = %d, want 9 (P1-P3, I1-I6)", newCount)
	}
}

func TestRenderDeviationsSurfacesQuirks(t *testing.T) {
	out, err := RenderDeviations()
	if err != nil {
		t.Fatalf("RenderDeviations: %v", err)
	}
	// Each implementation issue leaves a recognisable extra transition.
	for _, want := range []string{
		"UE/srsLTE",
		"UE/OAI",
		"sqn_in_range=0 / authentication_response",          // I3
		"guti_reallocation_command & plain_header=1",        // I2
		"identity_request & id_type=1 & plain_header=1",     // I5
		"count_fresh=0 & mac_valid=1 & plain_header=0 / se", // I1/I6 (SMC replay answered)
	} {
		if !strings.Contains(out, want) {
			t.Errorf("deviation report missing %q:\n%s", want, out)
		}
	}
}

// TestEvaluateAllContextKeepsCompletedVerdicts: a failing property does
// not cost the others their verdicts — the completed ones come back in
// list order alongside the collected error.
func TestEvaluateAllContextKeepsCompletedVerdicts(t *testing.T) {
	var knowledge []props.Property
	for _, p := range props.Catalogue() {
		if p.Kind == props.KindKnowledge {
			knowledge = append(knowledge, p)
		}
	}
	if len(knowledge) < 2 {
		t.Fatalf("catalogue has %d knowledge properties, want at least 2", len(knowledge))
	}
	list := []props.Property{knowledge[0], {ID: "X01", Kind: "bogus"}, knowledge[1]}
	verdicts, err := evaluator(t, ue.ProfileConformant).EvaluateAllContext(context.Background(), list)
	if err == nil || !strings.Contains(err.Error(), "X01") {
		t.Fatalf("error %v does not report the failing property", err)
	}
	if len(verdicts) != 2 || verdicts[0].PropertyID != knowledge[0].ID || verdicts[1].PropertyID != knowledge[1].ID {
		t.Fatalf("verdicts %+v, want %s and %s in list order", verdicts, knowledge[0].ID, knowledge[1].ID)
	}
}
