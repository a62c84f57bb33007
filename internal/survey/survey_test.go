package survey

import (
	"strings"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/parser"
)

func irFrom(t *testing.T, text string) *ir.IR {
	t.Helper()
	return parser.ParseText(text, "T")
}

func testRels() *asrel.Database {
	d := asrel.New()
	d.AddP2C(100, 200) // 100 provider of 200
	d.AddP2C(200, 300) // 200 provider of 300
	d.AddP2P(200, 400)
	return d
}

func TestExtractImportCustomer(t *testing.T) {
	x := irFrom(t, `
aut-num: AS200
import: from AS300 accept AS300
`)
	cands := ExtractCandidates(x, testRels())
	if len(cands) != 1 || cands[0].Pattern != PatternImportCustomer || cands[0].ASN != 200 {
		t.Fatalf("candidates = %+v", cands)
	}
	if !strings.Contains(cands[0].RuleText, "from AS300 accept AS300") {
		t.Errorf("rule text = %q", cands[0].RuleText)
	}
}

func TestExtractExportSelf(t *testing.T) {
	x := irFrom(t, `
aut-num: AS200
export: to AS100 announce AS200
`)
	cands := ExtractCandidates(x, testRels())
	if len(cands) != 1 || cands[0].Pattern != PatternExportSelf {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestStubExportSelfNotACandidate(t *testing.T) {
	// AS300 is a stub: announcing itself is correct, not a misuse.
	x := irFrom(t, `
aut-num: AS300
export: to AS200 announce AS300
`)
	cands := ExtractCandidates(x, testRels())
	if len(cands) != 0 {
		t.Fatalf("stub matched: %+v", cands)
	}
}

func TestImportProviderNotACandidate(t *testing.T) {
	// "from provider accept provider" is not the surveyed pattern.
	x := irFrom(t, `
aut-num: AS200
import: from AS100 accept AS100
`)
	cands := ExtractCandidates(x, testRels())
	if len(cands) != 0 {
		t.Fatalf("provider import matched: %+v", cands)
	}
}

func TestRunSurveyShape(t *testing.T) {
	cands := make([]Candidate, 1102)
	for i := range cands {
		cands[i] = Candidate{ASN: ir.ASN(i + 1), Pattern: PatternExportSelf}
	}
	oracle := OracleFunc(func(ir.ASN, Pattern) Intent { return IntentRelaxed })
	res := Run(cands, oracle, 1, 181.0/1102.0, 3.0/181.0)
	if res.Candidates != 1102 {
		t.Fatalf("candidates = %d", res.Candidates)
	}
	// Contactable should be near 181 (binomial), responses a handful.
	if res.Contactable < 130 || res.Contactable > 240 {
		t.Errorf("contactable = %d, want ~181", res.Contactable)
	}
	if res.Responses == 0 || res.Responses > 15 {
		t.Errorf("responses = %d, want a handful", res.Responses)
	}
	// The paper: 100% of responses confirm the relaxed reading.
	if res.ByIntent[IntentRelaxed] != res.Responses {
		t.Errorf("intents = %v", res.ByIntent)
	}
}

func TestRunDeterministic(t *testing.T) {
	cands := []Candidate{{ASN: 1}, {ASN: 2}, {ASN: 3}}
	oracle := OracleFunc(func(ir.ASN, Pattern) Intent { return IntentRelaxed })
	a := Run(cands, oracle, 5, 0.5, 0.5)
	b := Run(cands, oracle, 5, 0.5, 0.5)
	if a.Contactable != b.Contactable || a.Responses != b.Responses {
		t.Error("survey not deterministic for a fixed seed")
	}
}

func TestStrings(t *testing.T) {
	if PatternExportSelf.String() != "export-self" || PatternImportCustomer.String() != "import-customer" {
		t.Error("pattern names")
	}
	if IntentStrict.String() != "strict" || IntentRelaxed.String() != "relaxed" || IntentOther.String() != "other" {
		t.Error("intent names")
	}
}
