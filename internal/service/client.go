package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rofs/internal/obs"
)

// Client is the Go view of a rofs-server: cmd/rofs-client is a thin shell
// around it, and the end-to-end tests drive the server through it.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// APIError is a non-2xx response, carrying the decoded error body, the
// response's trace ID (the key into the server's access log), and — for
// 503s — the server's Retry-After hint.
type APIError struct {
	Code       int
	Message    string
	RetryAfter string
	TraceID    string
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
	if e.RetryAfter != "" {
		msg += " (Retry-After: " + e.RetryAfter + "s)"
	}
	if e.TraceID != "" {
		msg += " [trace " + e.TraceID + "]"
	}
	return msg
}

// RetryDelay converts the Retry-After hint to a wait, falling back to
// fallback when the header is absent or malformed. Only delay-seconds
// form is produced by rofs-server; HTTP-date hints fall back too.
func (e *APIError) RetryDelay(fallback time.Duration) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(e.RetryAfter)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return fallback
}

// Retryable reports whether the error is a 503 — the one status the
// server uses for transient overload, and therefore the only one worth
// retrying.
func (e *APIError) Retryable() bool { return e.Code == http.StatusServiceUnavailable }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out (skipped
// when out is nil). Non-2xx responses come back as *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.BaseURL, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate a caller-chosen trace ID so client and server logs share
	// one handle; without one the server mints its own.
	if id := obs.TraceIDFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e errorJSON
		json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return &APIError{Code: resp.StatusCode, Message: e.Error,
			RetryAfter: resp.Header.Get("Retry-After"),
			TraceID:    resp.Header.Get(obs.TraceHeader)}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit enqueues a run asynchronously and returns its handle.
func (c *Client) Submit(ctx context.Context, req RunRequest) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/runs", &req, &out)
	return out, err
}

// SubmitWait submits with ?wait=1: the call blocks until the run
// finishes (canceling ctx cancels the simulation server-side) and
// returns the final status.
func (c *Client) SubmitWait(ctx context.Context, req RunRequest) (RunStatus, error) {
	var out RunStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs?wait=1", &req, &out)
	return out, err
}

// SubmitRetry is Submit with 503 backoff: overload rejections wait out
// the server's Retry-After hint (fallback one second) and resubmit, up
// to retries additional attempts. Other errors return immediately.
func (c *Client) SubmitRetry(ctx context.Context, req RunRequest, retries int) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.retry(ctx, retries, func() error {
		var err error
		out, err = c.Submit(ctx, req)
		return err
	})
	return out, err
}

// retry runs attempt up to 1+retries times, sleeping the server's
// Retry-After between 503s; ctx cancellation cuts the wait short.
func (c *Client) retry(ctx context.Context, retries int, attempt func() error) error {
	for try := 0; ; try++ {
		err := attempt()
		var apiErr *APIError
		if err == nil || try >= retries || !errors.As(err, &apiErr) || !apiErr.Retryable() {
			return err
		}
		t := time.NewTimer(apiErr.RetryDelay(time.Second))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// Status fetches one run's document.
func (c *Client) Status(ctx context.Context, id string) (RunStatus, error) {
	var out RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &out)
	return out, err
}

// List fetches every run the server remembers, in submission order.
func (c *Client) List(ctx context.Context) ([]RunStatus, error) {
	var out []RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &out)
	return out, err
}

// Cancel asks the server to stop a run.
func (c *Client) Cancel(ctx context.Context, id string) (RunStatus, error) {
	var out RunStatus
	err := c.do(ctx, http.MethodDelete, "/v1/runs/"+id, nil, &out)
	return out, err
}

// Stream attaches to a run's SSE feed, invoking fn per event until the
// stream closes or fn returns false.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(c.BaseURL, "/")+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorJSON
		json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e)
		return &APIError{Code: resp.StatusCode, Message: e.Error}
	}
	return ReadSSE(resp.Body, fn)
}

// Wait follows the run's event stream to its terminal status — the
// push-based alternative to polling Status. The returned status carries
// the result (and metrics bundle) for done runs.
func (c *Client) Wait(ctx context.Context, id string) (RunStatus, error) {
	var final RunStatus
	var got bool
	err := c.Stream(ctx, id, func(ev Event) bool {
		if ev.Name != "result" && ev.Name != "error" {
			return true
		}
		got = json.Unmarshal(ev.Data, &final) == nil
		return false
	})
	if err != nil {
		return final, err
	}
	if !got {
		return final, fmt.Errorf("event stream for %s ended without a terminal event", id)
	}
	return final, nil
}

// Metrics scrapes the server's /metrics endpoint.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(c.BaseURL, "/")+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics scrape: %s", resp.Status)
	}
	return string(b), nil
}
