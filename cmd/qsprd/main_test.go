package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeThenDrain boots the daemon on an ephemeral port, reads the
// address from its readiness line, answers /healthz and one /map, and
// on cancellation drains: it says goodbye, exits 0 and stops
// listening.
func TestServeThenDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	lines := make(chan string, 2) // the readiness line and the drain notice
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-workers", "1"}, pw, &stderr)
		pw.Close()
	}()
	next := func() string {
		t.Helper()
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("qsprd exited with code %d: %s", <-done, stderr.String())
			}
			return l
		case <-time.After(10 * time.Second):
			t.Fatal("qsprd printed nothing for 10s")
		}
		return ""
	}

	addr, ok := strings.CutPrefix(next(), "qsprd: listening on ")
	if !ok {
		t.Fatal("first line does not announce the address")
	}
	client := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("/healthz: %d %q", resp.StatusCode, body)
	}
	resp, err = client.Post("http://"+addr+"/map", "application/json",
		strings.NewReader(`{"circuit":"ghz(q=4)","fabric":"small","heuristic":"qspr-center"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" || !strings.Contains(string(body), `"circuit":"ghz(q=4)"`) {
		t.Errorf("/map: %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}

	cancel()
	if l := next(); l != "qsprd: drained, bye" {
		t.Errorf("after cancel: %q, want the drain notice", l)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit code %d after a drain, want 0: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the drain")
	}
	if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("still serving after the drain")
	}
}
