package curriculum

import (
	"strings"
	"testing"
)

func TestTableVComplete(t *testing.T) {
	if len(TableV) != 6 {
		t.Fatalf("Table V has %d rows, paper has 6", len(TableV))
	}
	for _, o := range TableV {
		if o.Level == "" || o.KnowledgeArea == "" || o.KnowledgeUnit == "" || o.Text == "" {
			t.Fatalf("incomplete row: %+v", o)
		}
		if o.DemonstratedBy == "" {
			t.Fatalf("row %q not linked to a reproduction artifact", o.KnowledgeUnit)
		}
	}
}

func TestLevelsMatchPaper(t *testing.T) {
	want := map[string]bool{"Familiarity": true, "Usage": true, "Assessment": true}
	seen := map[string]bool{}
	for _, o := range TableV {
		if !want[o.Level] {
			t.Fatalf("unexpected level %q", o.Level)
		}
		seen[o.Level] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("levels = %v, want every one of %v", seen, want)
	}
}

func TestRender(t *testing.T) {
	s := Render()
	for _, want := range []string{
		"Distributed Databases",
		"map and reduce operations",
		"data locality",
		"internal/hdfs",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}
