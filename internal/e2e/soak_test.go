package e2e

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildCLI builds the hiway binary into dir and returns its path.
func buildCLI(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hiway")
	build := exec.Command("go", "build", "-o", bin, "hiway/cmd/hiway")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestLoadSoakByteDeterminism builds the hiway binary and runs the same
// `hiway load` soak twice in separate processes and working directories.
// The full stdout — summary, per-tenant breakdown, and the per-workflow
// accounting table — and the Prometheus metrics snapshot must be
// byte-identical: the service tier's determinism-by-seed guarantee at the
// operator-facing surface. The overload rate (x2) makes the comparison
// cover rejection, retry, and drop accounting, not just the happy path,
// and a second pair of runs repeats the check under an armed chaos plan.
func TestLoadSoakByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)

	run := func(runDir string, extra ...string) (stdout, metrics []byte) {
		t.Helper()
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"load",
			"-seed", "7", "-nodes", "6", "-duration", "1800", "-rate", "2",
			"-max-concurrent", "3", "-max-queue", "6", "-metrics", "metrics.prom"},
			extra...)
		cmd := exec.Command(bin, args...)
		cmd.Dir = runDir
		var out, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("load run: %v\nstderr: %s", err, stderr.String())
		}
		m, err := os.ReadFile(filepath.Join(runDir, "metrics.prom"))
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), m
	}

	cases := []struct {
		name  string
		extra []string
	}{
		{"plain", nil},
		{"chaos", []string{"-chaos", "crashrate=0.1;kill=node-03@300;slow=node-02@120:1", "-chaos-seed", "5"}},
		{"memo", []string{"-memo"}},
		{"memo-chaos", []string{"-memo", "-chaos", "crashrate=0.1;kill=node-03@300;slow=node-02@120:1", "-chaos-seed", "5"}},
		{"memo-crash-kill", []string{"-memo", "-chaos", "crashrate=0.1;kill=node-03@300", "-chaos-seed", "5"}},
	}
	for _, tc := range cases {
		out1, m1 := run(filepath.Join(dir, tc.name+"-1"), tc.extra...)
		out2, m2 := run(filepath.Join(dir, tc.name+"-2"), tc.extra...)
		if !bytes.Equal(out1, out2) {
			t.Errorf("%s: stdout differs between identical soak runs:\n--- run 1\n%s--- run 2\n%s", tc.name, out1, out2)
		}
		if !bytes.Equal(m1, m2) {
			t.Errorf("%s: metrics snapshots differ between identical soak runs", tc.name)
		}
		if !bytes.Contains(out1, []byte("workflow accounts:")) {
			t.Errorf("%s: stdout lacks the per-workflow accounting table:\n%s", tc.name, out1)
		}
		if !bytes.Contains(m1, []byte("hiway_svc_submissions_total")) {
			t.Errorf("%s: metrics snapshot lacks hiway_svc_* series", tc.name)
		}
		if !bytes.Contains(out1, []byte("rejected")) {
			t.Errorf("%s: stdout lacks rejection accounting", tc.name)
		}
		memoOn := false
		for _, a := range tc.extra {
			memoOn = memoOn || a == "-memo"
		}
		if memoOn {
			if !bytes.Contains(out1, []byte("memo: ")) {
				t.Errorf("%s: stdout lacks the memo splice summary:\n%s", tc.name, out1)
			}
			if !bytes.Contains(m1, []byte("hiway_memo_hits_total")) {
				t.Errorf("%s: metrics snapshot lacks hiway_memo_* series", tc.name)
			}
		} else if bytes.Contains(m1, []byte("hiway_memo_")) {
			t.Errorf("%s: memo-off run leaked hiway_memo_* series into metrics", tc.name)
		}
	}
}

// TestElasticSoakByteDeterminism repeats the soak discipline for the elastic
// tier: the same `hiway elastic` run — reactive autoscaling with nodes
// joining, draining, and being reclaimed by seeded spot chaos — executed
// twice in separate processes must print byte-identical stdout and metrics
// snapshots. Membership churn, evacuation copies, and preemption retries all
// ride the deterministic event queue, so any divergence is a real bug.
func TestElasticSoakByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)

	run := func(runDir string, extra ...string) (stdout, metrics []byte) {
		t.Helper()
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"elastic",
			"-seed", "7", "-duration", "900", "-autoscale", "reactive",
			"-spot-rate", "0.3", "-metrics", "metrics.prom"},
			extra...)
		cmd := exec.Command(bin, args...)
		cmd.Dir = runDir
		var out, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("elastic run: %v\nstderr: %s", err, stderr.String())
		}
		m, err := os.ReadFile(filepath.Join(runDir, "metrics.prom"))
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), m
	}

	cases := []struct {
		name  string
		extra []string
	}{
		{"reactive-spot", nil},
		{"predictive-spot", []string{"-autoscale", "predictive"}},
	}
	for _, tc := range cases {
		out1, m1 := run(filepath.Join(dir, tc.name+"-1"), tc.extra...)
		out2, m2 := run(filepath.Join(dir, tc.name+"-2"), tc.extra...)
		if !bytes.Equal(out1, out2) {
			t.Errorf("%s: stdout differs between identical elastic runs:\n--- run 1\n%s--- run 2\n%s", tc.name, out1, out2)
		}
		if !bytes.Equal(m1, m2) {
			t.Errorf("%s: metrics snapshots differ between identical elastic runs", tc.name)
		}
		if !bytes.Contains(out1, []byte("spot-notices")) {
			t.Errorf("%s: stdout lacks the churn ledger:\n%s", tc.name, out1)
		}
		if !bytes.Contains(m1, []byte("hiway_autoscale_scale_ups_total")) {
			t.Errorf("%s: metrics snapshot lacks hiway_autoscale_* series", tc.name)
		}
		if !bytes.Contains(m1, []byte("hiway_yarn_preempted_total")) {
			t.Errorf("%s: metrics snapshot lacks the preemption counter", tc.name)
		}
	}
}

// TestLoadMemoLadderColumns runs `hiway load -ladder` over a 600 s window
// with and without -memo and checks the ladder JSON: every memo rung
// carries the memo flag, no memo-off rung carries a memo column, and the
// memo ladder splices at least one task from the table.
func TestLoadMemoLadderColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	ladder := func(name string, extra ...string) []map[string]any {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		args := append([]string{"load", "-ladder", "-duration", "600", "-json", path}, extra...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s ladder: %v\n%s", name, err, out)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Points []map[string]any `json:"points"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("%s ladder JSON: %v", name, err)
		}
		if len(res.Points) == 0 {
			t.Fatalf("%s ladder has no points", name)
		}
		return res.Points
	}
	hit := false
	for _, p := range ladder("ladder-memo", "-memo") {
		if p["memo"] != true {
			t.Errorf("memo ladder rung missing memo flag: %v", p)
		}
		if hits, _ := p["memoHits"].(float64); hits > 0 {
			hit = true
		}
	}
	if !hit {
		t.Error("memo ladder never hit")
	}
	for _, p := range ladder("ladder-off") {
		if _, ok := p["memo"]; ok {
			t.Errorf("memo-off rung leaked memo columns: %v", p)
		}
	}
}
