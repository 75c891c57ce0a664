package runner

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestPoolSingleFlightAcrossRuns proves the cache is single-flight under
// concurrency: two identical Specs submitted through two concurrent Run
// calls simulate once, and the loser is served the winner's result as
// Cached. This is the property the service layer leans on when duplicate
// HTTP submissions coalesce.
func TestPoolSingleFlightAcrossRuns(t *testing.T) {
	p := New(2)
	sp := testSpec(t, 11)

	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := p.Run(context.Background(), []Spec{sp})
			results[i], errs[i] = res[0], err
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("Run %d: %v", i, errs[i])
		}
		if results[i].Err != nil {
			t.Fatalf("result %d: %v", i, results[i].Err)
		}
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Simulated != 1 || st.Cached != 1 {
		t.Errorf("stats = %+v; want 2 submitted, 1 simulated, 1 cached", st)
	}
	if results[0].Cached == results[1].Cached {
		t.Errorf("exactly one of the two runs must be cached; got %t and %t",
			results[0].Cached, results[1].Cached)
	}
	if a, b := fmt.Sprintf("%#v", results[0].Outcome), fmt.Sprintf("%#v", results[1].Outcome); a != b {
		t.Error("coalesced runs returned different outcomes")
	}
}

// TestPoolStats checks the saturation accounting: gauges return to zero
// once a batch drains, and peaks record the high-water marks.
func TestPoolStats(t *testing.T) {
	p := New(2)
	specs := []Spec{testSpec(t, 1), testSpec(t, 1), testSpec(t, 2)}
	if _, err := p.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.QueueDepth != 0 || st.InFlight != 0 {
		t.Errorf("gauges did not drain: queue=%d in-flight=%d", st.QueueDepth, st.InFlight)
	}
	if st.Submitted != 3 || st.Simulated != 2 || st.Cached != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v; want 3 submitted, 2 simulated, 1 cached, 0 failed", st)
	}
	if st.PeakQueueDepth < 1 || st.PeakInFlight < 1 {
		t.Errorf("peaks not recorded: %+v", st)
	}
}
