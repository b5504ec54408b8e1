package service

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// These tests pin the modelled outcome of the deterministic replay and the
// seeded-arrival Service across commits: a change to either tier that moves
// an admission time, a completion time, a rejection or a completed-task set
// fails here, where a same-commit run-twice comparison would still pass.

// exact renders a float with every bit, so the pins do not hide rounding.
func exact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// digest is a short stable fingerprint of a pinned text block.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// TestPinnedOverloadedMemoReplay runs a memo replay with one admission
// slot, a queue of two and two client retries, so the pinned run covers
// admission, 429 retries, drops and memo splicing together.
func TestPinnedOverloadedMemoReplay(t *testing.T) {
	s, err := NewServer(ServerConfig{
		Nodes: 2, MaxConcurrent: 1, MaxQueue: 2, RetryAfterSec: 20, RetryLimit: 2,
		Memo: true, Deterministic: true,
	}, serveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeterministic(5, 400); err != nil {
		t.Fatal(err)
	}
	want := ServerStats{Submitted: 52, Accepted: 45, Rejected: 7, Dropped: 1, Completed: 45, PeakRunning: 1}
	if st := s.Stats(); st != want {
		t.Errorf("stats %+v, pinned %+v", st, want)
	}
	if got := digest(string(s.Multiset())); got != "be2a772577a7cbc6" {
		t.Errorf("multiset digest %s, pinned be2a772577a7cbc6:\n%s", got, s.Multiset())
	}
	var lines []string
	for _, r := range s.Runs() {
		st := r.Status()
		lines = append(lines, fmt.Sprintf("%s %s %s %s %s %d", st.ID, st.State,
			exact(st.SubmitAt), exact(st.AdmitAt), exact(st.EndAt), st.Rejections))
	}
	sort.Strings(lines)
	if tl := strings.Join(lines, "\n"); digest(tl) != "432a7e849057cb22" {
		t.Errorf("run timeline digest %s, pinned 432a7e849057cb22:\n%s", digest(tl), tl)
	}
}

// TestPinnedRetryingServiceAccounts pins every account of a Service run
// whose one admission slot and short queue make submissions retry, some
// into admission and some into a drop.
func TestPinnedRetryingServiceAccounts(t *testing.T) {
	cfg := Config{Seed: 7, DurationSec: 400, MaxConcurrent: 1, MaxQueue: 2, RetryAfterSec: 20, RetryLimit: 2}
	accounts, _ := runOnce(t, cfg, serveProfiles())
	var lines []string
	for _, a := range accounts {
		lines = append(lines, fmt.Sprintf("%s %s %s %s %s %s %d %d %d %v %v %v %q",
			a.ID, exact(a.SubmitAt), exact(a.QueuedAt), exact(a.AdmitAt), exact(a.EndAt), exact(a.MakespanSec),
			a.Tasks, a.Memoized, a.Rejections, a.Admitted, a.Succeeded, a.Dropped, a.Err))
	}
	if got := strings.Join(lines, "\n"); digest(got) != "82d25242796bd6d2" {
		t.Errorf("accounts digest %s, pinned 82d25242796bd6d2:\n%s", digest(got), got)
	}
}
