package provenance

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"hiway/internal/wf"
)

// seqEvents returns n distinct events numbered from first.
func seqEvents(first, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{ID: "ev-" + strconv.Itoa(first+i), Type: TaskEnd, TaskID: int64(first + i)}
	}
	return evs
}

// TestMemStoreChunkedMatchesSlice mixes single appends and batches around
// the chunk boundaries and checks Events() against a plain slice.
func TestMemStoreChunkedMatchesSlice(t *testing.T) {
	cases := []struct {
		name    string
		batches []int // -1 is a single Append
	}{
		{"empty", nil},
		{"zero-batches", []int{0, 0}},
		{"singles", []int{-1, -1, -1, -1, -1}},
		{"small-batches", []int{1, 15, 16, 17, 0, 1}},
		{"around-a-chunk", []int{1023, 1, 1024, 1025}},
		{"larger-than-a-chunk", []int{5000, -1, 3000}},
		{"mixed", []int{-1, 16, -1, 1023, -1, 1025, 0, 17, 2048, -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewMemStore()
			var want []Event
			for _, b := range tc.batches {
				if b < 0 {
					ev := seqEvents(len(want), 1)[0]
					if err := s.Append(ev); err != nil {
						t.Fatal(err)
					}
					want = append(want, ev)
					continue
				}
				evs := seqEvents(len(want), b)
				if err := s.AppendBatch(evs); err != nil {
					t.Fatal(err)
				}
				want = append(want, evs...)
			}
			got, err := s.Events()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("Events() holds %d events, want %d (or contents differ)", len(got), len(want))
			}
			for _, c := range s.chunks {
				if cap(c) > maxChunk {
					t.Fatalf("chunk capacity %d exceeds %d", cap(c), maxChunk)
				}
			}
		})
	}
}

// TestMemStoreChunkSizing pins the sizing rule: a new chunk holds
// max(events stored, incoming batch), capped at maxChunk.
func TestMemStoreChunkSizing(t *testing.T) {
	caps := func(s *MemStore) []int {
		var out []int
		for _, c := range s.chunks {
			out = append(out, cap(c))
		}
		return out
	}
	batched := NewMemStore()
	_ = batched.AppendBatch(seqEvents(0, 128))
	_ = batched.AppendBatch(seqEvents(128, 128))
	_ = batched.AppendBatch(seqEvents(256, 2000))
	if got, want := caps(batched), []int{128, 128, 1024, 1024}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batched chunk capacities = %v, want %v", got, want)
	}
	single := NewMemStore()
	for _, ev := range seqEvents(0, 7) {
		_ = single.Append(ev)
	}
	if got, want := caps(single), []int{1, 1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("single-append chunk capacities = %v, want %v", got, want)
	}
}

// TestMemStoreEventsIsACopy checks that mutating the returned slice does
// not reach the stored events.
func TestMemStoreEventsIsACopy(t *testing.T) {
	s := NewMemStore()
	_ = s.AppendBatch(seqEvents(0, 3))
	got, _ := s.Events()
	got[0].ID = "mutated"
	got[2] = Event{}
	again, _ := s.Events()
	if !reflect.DeepEqual(again, seqEvents(0, 3)) {
		t.Fatalf("store changed through the Events() result: %+v", again)
	}
}

// TestMemStoreConcurrentAppends is meant for -race: concurrent writers
// and readers, after which every event is stored exactly once.
func TestMemStoreConcurrentAppends(t *testing.T) {
	s := NewMemStore()
	const writers, perWriter = 4, 600
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * perWriter
			for i := 0; i < perWriter; {
				if i%3 == 0 {
					_ = s.Append(seqEvents(base+i, 1)[0])
					i++
					continue
				}
				n := min(17, perWriter-i)
				_ = s.AppendBatch(seqEvents(base+i, n))
				i += n
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := s.Events(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	got, _ := s.Events()
	if len(got) != writers*perWriter {
		t.Fatalf("stored %d events, want %d", len(got), writers*perWriter)
	}
	seen := make(map[int64]bool, len(got))
	for _, ev := range got {
		if seen[ev.TaskID] {
			t.Fatalf("event %d stored twice", ev.TaskID)
		}
		seen[ev.TaskID] = true
	}
}

// TestTaskEventIDMatchesSprintf pins the ID builder to the fmt formats it
// replaced, so traces keep byte-identical IDs.
func TestTaskEventIDMatchesSprintf(t *testing.T) {
	old := func(wfID string, taskID int64, suffix string, attempt int) string {
		id := fmt.Sprintf("%s-task-%d%s", wfID, taskID, suffix)
		if attempt > 0 {
			id = fmt.Sprintf("%s-a%d", id, attempt)
		}
		return id
	}
	long := "workflow-with-an-identifier-longer-than-the-stack-buffer-0123456789"
	for _, wfID := range []string{"wf1", "", long} {
		for _, taskID := range []int64{0, 7, -3, 1 << 40, -1 << 62} {
			for _, suffix := range []string{"", "-start"} {
				for _, attempt := range []int{0, 1, 12, -1} {
					got := taskEventID(wfID, taskID, suffix, attempt)
					if want := old(wfID, taskID, suffix, attempt); got != want {
						t.Fatalf("taskEventID(%q, %d, %q, %d) = %q, want %q", wfID, taskID, suffix, attempt, got, want)
					}
				}
			}
		}
	}
}

// recordOneTask records one attempt's start and end.
func recordOneTask(m *Manager, res *wf.TaskResult, sizes map[string]float64) {
	_ = m.RecordTaskStart("wf1", "snv", res.Task, res.Node, 0, res.Start)
	_ = m.RecordTaskEnd("wf1", "snv", res, sizes)
}

// recordTaskAllocBudget is the allocation count of one task's start and
// end records on a MemStore: the two event IDs and the task-end Inputs and
// Outputs. The store's chunks amortize to well under one per task.
const recordTaskAllocBudget = 4

func TestManagerRecordTaskAllocs(t *testing.T) {
	m, err := NewManager(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult("bowtie2", "node-00", 120)
	sizes := map[string]float64{"in.dat": 5}
	recordOneTask(m, res, sizes) // warm the indexes
	got := testing.AllocsPerRun(1000, func() { recordOneTask(m, res, sizes) })
	if got > recordTaskAllocBudget {
		t.Fatalf("RecordTaskStart+RecordTaskEnd allocate %.2f times, budget %d", got, recordTaskAllocBudget)
	}
}

func BenchmarkManagerRecordTask(b *testing.B) {
	m, err := NewManager(NewMemStore())
	if err != nil {
		b.Fatal(err)
	}
	res := sampleResult("bowtie2", "node-00", 120)
	sizes := map[string]float64{"in.dat": 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recordOneTask(m, res, sizes)
	}
}
