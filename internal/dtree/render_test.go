package dtree

import (
	"strings"
	"testing"

	"repro/internal/cnf"
)

func TestStringLeafOnly(t *testing.T) {
	r := &rowData{features: []cnf.Var{1}, rows: [][]bool{{true}}, labels: []bool{true}}
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "leaf 1\n" {
		t.Fatalf("leaf rendering: %q", got)
	}
}

func TestStringStructure(t *testing.T) {
	feats := []cnf.Var{7}
	r := tableDataset(feats, func(row []bool) bool { return row[0] })
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.String()
	for _, want := range []string{"v7?", "├─0─ leaf 0", "└─1─ leaf 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestStringNestedIndent(t *testing.T) {
	feats := []cnf.Var{1, 2}
	r := tableDataset(feats, func(row []bool) bool { return row[0] != row[1] })
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.String()
	if strings.Count(out, "leaf") < 3 {
		t.Fatalf("xor tree should have >= 3 leaves:\n%s", out)
	}
	if !strings.Contains(out, "│") {
		t.Fatalf("nested branch indentation missing:\n%s", out)
	}
}
