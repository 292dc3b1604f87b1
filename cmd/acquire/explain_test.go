package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"testing"
	"time"
)

// explainTables splits -explain output into its point rows and layer
// rows, each row split into fields, and reads the explored count off
// the summary line.
func explainTables(t *testing.T, out string) (points, layers [][]string, explored int) {
	t.Helper()
	var rows *[][]string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
			rows = nil
		case f[0] == "seq":
			rows = &points
		case f[0] == "layer":
			rows = &layers
		case f[0] == "explored":
			if _, err := fmt.Sscanf(sc.Text(), "explored %d refined queries", &explored); err != nil {
				t.Fatalf("parse %q: %v", sc.Text(), err)
			}
			rows = nil
		case rows != nil:
			*rows = append(*rows, f)
		}
	}
	if len(points) == 0 || len(layers) == 0 {
		t.Fatalf("no point or layer rows:\n%s", out)
	}
	return points, layers, explored
}

// TestRunExplainTables: -explain prints one point row per explored grid
// query, in exploration order, and one layer row per Expand layer — the
// layers' QScores are the points' distinct QScores and their widths sum
// to the points explored.
func TestRunExplainTables(t *testing.T) {
	out, err := runCLI(t, "-dataset", "users", "-rows", "2000", "-explain",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 900 WHERE age <= 30 AND income <= 40000`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	points, layers, explored := explainTables(t, out)
	if len(points) != explored {
		t.Fatalf("%d point rows, explored %d:\n%s", len(points), explored, out)
	}
	var qscores []string
	for i, p := range points {
		if len(p) != 6 || p[0] != strconv.Itoa(i) {
			t.Fatalf("point row %d is %q", i, p)
		}
		if len(qscores) == 0 || qscores[len(qscores)-1] != p[2] {
			qscores = append(qscores, p[2])
		}
	}
	if len(layers) != len(qscores) {
		t.Fatalf("%d layer rows, %d distinct point QScores %v:\n%s", len(layers), len(qscores), qscores, out)
	}
	width := 0
	for i, l := range layers {
		if len(l) != 5 || l[0] != strconv.Itoa(i) || l[1] != qscores[i] {
			t.Errorf("layer row %d is %q, want layer %d at QScore %s", i, l, i, qscores[i])
		}
		w, err := strconv.Atoi(l[2])
		if err != nil {
			t.Fatal(err)
		}
		width += w
		if _, err := time.ParseDuration(l[4]); err != nil {
			t.Errorf("layer row %d wall %q: %v", i, l[4], err)
		}
	}
	if width != explored {
		t.Errorf("layer widths sum to %d, explored %d", width, explored)
	}
}

// TestRunExplainWithLogJSON: -explain and -log-json compose — the tables
// go to stdout and every event, the tabulated ones included, to stderr
// as JSON.
func TestRunExplainWithLogJSON(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run(context.Background(), []string{"-dataset", "users", "-rows", "2000", "-explain", "-log-json",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 900 WHERE age <= 30`}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	points, layers, _ := explainTables(t, stdout.String())
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		var ev struct {
			Msg    string    `json:"msg"`
			Scores []float64 `json:"scores"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("stderr line %q: %v", line, err)
		}
		counts[ev.Msg]++
		if ev.Msg == "search.point" && len(ev.Scores) != 1 {
			t.Errorf("search.point without its one score: %s", line)
		}
	}
	if counts["search.point"] != len(points) || counts["search.layer"] != len(layers) {
		t.Errorf("JSON has %d search.point and %d search.layer events; tables have %d and %d rows",
			counts["search.point"], counts["search.layer"], len(points), len(layers))
	}
	if counts["engine.query"] == 0 {
		t.Errorf("engine events missing from the JSON stream: %v", counts)
	}
}

// TestWriteToRendersLayers pins the layer table: WriteTo renders one
// row per search.layer event the handler received, in order, after the
// point rows.
func TestWriteToRendersLayers(t *testing.T) {
	var rows explainRows
	log := slog.New(explainHandler{rows: &rows})
	log.Debug("search.point", "seq", 0, "scores", []float64{0}, "qscore", 0.0,
		"aggregate", 3.0, "err", 0.8, "outcome", "undershoot")
	log.Info("search.layer", "layer", 0, "qscore", 0.0, "width", 1, "batch_width", 1, "wall_ms", 250.0)
	log.Info("search.layer", "layer", 1, "qscore", 10.0, "width", 2, "batch_width", 2, "wall_ms", 50.0)
	log.Info("search.done", "explored", 3)
	var sb strings.Builder
	if _, err := rows.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"seq", "(0)", "undershoot", "layer", "width", "batch", "wall", "250ms", "50ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "undershoot") > strings.Index(out, "layer") {
		t.Errorf("point rows after the layer table:\n%s", out)
	}
	if strings.Index(out, "250ms") > strings.Index(out, "50ms") {
		t.Errorf("layer rows out of order:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 6 {
		t.Errorf("%d lines, want 6 (two headers, a blank line, one point row and two layer rows; search.done is no row):\n%s", n, out)
	}
}
