package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fex/internal/apps/httpd"
	"fex/internal/apps/kvcache"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Rate: 10, Duration: time.Second}); err == nil {
		t.Error("expected error for nil Do")
	}
	if _, err := Run(ctx, Config{Rate: 0, Duration: time.Second, Do: func(context.Context) error { return nil }}); err == nil {
		t.Error("expected error for zero rate")
	}
	if _, err := Run(ctx, Config{Rate: 10, Do: func(context.Context) error { return nil }}); err == nil {
		t.Error("expected error for zero duration")
	}
}

func TestRunAgainstFastTarget(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Rate:     500,
		Duration: 300 * time.Millisecond,
		Do:       func(context.Context) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// Offered 500/s for 0.3s → ~150 requests; allow generous slack for
	// scheduler noise.
	if res.Completed < 50 || res.Completed > 250 {
		t.Errorf("completed %d, want ~150", res.Completed)
	}
	if res.Errors != 0 {
		t.Errorf("errors %d", res.Errors)
	}
	if res.Throughput <= 0 {
		t.Error("throughput not computed")
	}
}

func TestRunCountsErrors(t *testing.T) {
	fail := errors.New("boom")
	// Do runs from concurrent dispatch goroutines; the counter must be
	// atomic or the race detector trips when two requests overlap.
	var calls atomic.Int64
	res, err := Run(context.Background(), Config{
		Rate:     200,
		Duration: 200 * time.Millisecond,
		Do: func(context.Context) error {
			if calls.Add(1)%2 == 0 {
				return fail
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Error("no errors recorded")
	}
}

func TestRunLatencyPercentilesOrdered(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Rate:     300,
		Duration: 300 * time.Millisecond,
		Do: func(context.Context) error {
			time.Sleep(time.Millisecond)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 {
		t.Errorf("percentiles out of order: %v %v %v", res.P50, res.P95, res.P99)
	}
	if res.Mean < 500*time.Microsecond {
		t.Errorf("mean %v below the injected 1ms service time", res.Mean)
	}
}

func TestRunRespectsContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, Config{
		Rate:     100,
		Duration: 5 * time.Second,
		Do:       func(context.Context) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cancel did not stop the run")
	}
}

func TestRunInFlightCap(t *testing.T) {
	block := make(chan struct{})
	res, err := Run(context.Background(), Config{
		Rate:        1000,
		Duration:    200 * time.Millisecond,
		MaxInFlight: 4,
		Do: func(ctx context.Context) error {
			select {
			case <-block:
			case <-time.After(time.Second):
			}
			return nil
		},
	})
	close(block)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("overload did not drop requests")
	}
}

func TestHTTPTargetEndToEnd(t *testing.T) {
	srv, err := httpd.Start(httpd.Config{Pages: httpd.StaticSite()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Stop(ctx)
	}()
	res, err := Run(context.Background(), Config{
		Rate:     300,
		Duration: 300 * time.Millisecond,
		Do:       HTTPTarget(srv.URL() + "/index.html"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Errors > res.Completed/10 {
		t.Errorf("completed=%d errors=%d", res.Completed, res.Errors)
	}
	if got := srv.Stats().Requests; got == 0 {
		t.Error("server saw no requests")
	}
}

func TestHTTPTargetBadStatus(t *testing.T) {
	srv, err := httpd.Start(httpd.Config{Pages: httpd.StaticSite()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Stop(ctx)
	}()
	do := HTTPTarget(srv.URL() + "/missing.html")
	if err := do(context.Background()); err == nil {
		t.Error("expected error for 404")
	}
}

func TestKVTargetEndToEnd(t *testing.T) {
	srv, err := kvcache.Start(kvcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Stop(ctx)
	}()
	do, closePool, err := KVTarget(srv.Addr(), "bench", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer closePool()
	for i := 0; i < 10; i++ {
		if err := do(context.Background()); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Hits < 10 {
		t.Errorf("hits = %d", st.Hits)
	}
}
