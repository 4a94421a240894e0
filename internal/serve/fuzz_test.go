package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/debug"
)

// FuzzResolve feeds symbol and address specs, as the watch, break and
// read ops carry them, to Session.resolve against a program with a few
// symbols. Nothing may panic; a defined symbol resolves to its address,
// and any other spec resolves exactly when strconv.ParseUint(spec, 0, 64)
// accepts it, to the value it parses.
func FuzzResolve(f *testing.F) {
	prog, err := asm.Assemble(countdownProg)
	if err != nil {
		f.Fatal(err)
	}
	s := &Session{prog: prog}
	for _, spec := range []string{"v", "main", "loop", "", "0x", "-1", "0x1000", "0b101", "0o17", "017",
		"1_000", "18446744073709551615", "18446744073709551616", " v"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := s.resolve(spec)
		if addr, ok := prog.Symbols[spec]; ok {
			if err != nil || got != addr {
				t.Fatalf("resolve(%q) = %#x, %v; want the symbol's %#x", spec, got, err, addr)
			}
			return
		}
		want, perr := strconv.ParseUint(spec, 0, 64)
		if (err == nil) != (perr == nil) || (err == nil && got != want) {
			t.Fatalf("resolve(%q) = %#x, %v; ParseUint gives %#x, %v", spec, got, err, want, perr)
		}
	})
}

// FuzzRequest sends one arbitrary request line per input through
// ServeConn, on a fresh one-worker server that holds one idle session of
// a halting program (session 1). One line per input means no wait can
// block on a looping program. ServeConn must return; every line it
// writes must decode as a Response or an EventFrame, with one Response
// for a request that is not blank; a ping on a second connection must
// answer; and Close must return.
//
// The seeds and the corpus in testdata/fuzz/FuzzRequest hold ops and
// fields the protocol no longer has (rerank, create's priority,
// subscribe's backpressure), read addresses that are not addresses, and
// a watch of an unknown kind.
func FuzzRequest(f *testing.F) {
	for _, line := range []string{
		`{"op":"ping"}`,
		`{"op":"wait","session":1}`,
		`{"op":"continue","session":1}`,
		`{"op":"step","session":1,"count":3}`,
		`{"op":"read","session":1,"addr":"v"}`,
		`{"op":"watch","session":1,"sym":"v","cond":{"op":"==","value":5}}`,
		`{"op":"subscribe","session":1,"backpressure":true,"depth":1}`,
		`{"op":"stats"}`,
		`{"op":"trace","session":1}`,
		`{bad json`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		srv := New(Config{Workers: 1})
		if _, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise)); err != nil {
			t.Fatal(err)
		}
		line = strings.ReplaceAll(line, "\n", " ")
		var out bytes.Buffer
		if err := srv.ServeConn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(line + "\n"), &out}); err != nil {
			t.Errorf("ServeConn: %v", err)
		}
		responses := 0
		for _, l := range strings.SplitAfter(out.String(), "\n") {
			switch {
			case l == "":
			case decodesAs(l, &Response{}):
				responses++
			case !decodesAs(l, &EventFrame{}):
				t.Errorf("output line %q is neither a response nor an event frame", l)
			}
		}
		want := 1
		if strings.TrimSpace(line) == "" {
			want = 0 // ServeConn skips blank lines
		}
		if responses != want {
			t.Errorf("%d responses to %q, want %d", responses, line, want)
		}

		var pong bytes.Buffer
		_ = srv.ServeConn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(`{"op":"ping"}` + "\n"), &pong})
		if got := strings.TrimSpace(pong.String()); got != `{"ok":true}` {
			t.Errorf("ping after %q answered %q", line, got)
		}

		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatalf("Close did not return after %q", line)
		}
	})
}

// decodesAs reports whether line is one JSON value that decodes into v
// with no field v lacks.
func decodesAs(line string, v any) bool {
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && !dec.More()
}
