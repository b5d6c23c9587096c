package analysis

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Demo", "a", "bb", "ccc")
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("10", "20", "30")
	tbl.Note = "a note"
	out := tbl.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "a note") {
		t.Errorf("missing title or note:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, underline, header, separator, 2 rows, note
	if len(lines) != 7 {
		t.Errorf("expected 7 lines, got %d:\n%s", len(lines), out)
	}
	// Columns aligned: the header line and data lines have equal length.
	if len(lines[2]) != len(lines[4]) {
		t.Errorf("misaligned rows %q vs %q", lines[2], lines[4])
	}
}

func TestTableRenderWithoutTitleOrNote(t *testing.T) {
	tbl := NewTable("", "x")
	tbl.AddRow("1")
	out := tbl.Render()
	if strings.Contains(out, "note:") {
		t.Error("no note expected")
	}
	if strings.HasPrefix(out, "\n") {
		t.Error("should not start with a blank line")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("1", "x,y")
	csv := tbl.CSV()
	if !strings.Contains(csv, "a,b\n") {
		t.Errorf("missing header: %q", csv)
	}
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma cell should be quoted: %q", csv)
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("1", "2")
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "|---|---|") {
		t.Errorf("markdown malformed:\n%s", md)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("t", "a")
	tbl.AddRow("1", "2", "3")
	out := tbl.Render()
	if !strings.Contains(out, "3") {
		t.Error("extra cells should still render")
	}
}

func TestHelpers(t *testing.T) {
	if itoa(42) != "42" {
		t.Error("itoa wrong")
	}
	if boolMark(true) != "yes" || boolMark(false) != "no" {
		t.Error("boolMark wrong")
	}
}
