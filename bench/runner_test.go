package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"drbw/internal/obs"
)

// A result that differs from the reference, from an earlier round or from
// a required property counts its operation as failed, and so does an
// error; the other operations still count as attempted and succeeded.
func TestForcedMismatchCountsAsFailed(t *testing.T) {
	b := &bench{opts: options{smoke: true}} // one round per phase
	calls := 0
	ok := func(fp string) func() (outcome, error) {
		return func() (outcome, error) { return outcome{fp: fp}, nil }
	}
	ops := []op{
		{label: "steady", run: ok("a")},
		{label: "wrong-reference", want: "expected", run: ok("actual")},
		{label: "changes-between-rounds", run: func() (outcome, error) {
			calls++
			return outcome{fp: fmt.Sprint(calls)}, nil
		}},
		{label: "errs", run: func() (outcome, error) { return outcome{}, errors.New("boom") }},
		{label: "fails-check", run: ok("b"), check: func(outcome) error { return errors.New("property violated") }},
	}
	var log bytes.Buffer
	ck := newChecker(len(ops), &log)
	b.runPhase(ops, ck, 0, false)
	if ck.attempted != 5 || ck.failed != 3 {
		t.Fatalf("round 1: %d attempted, %d failed; want 5, 3\n%s", ck.attempted, ck.failed, log.String())
	}
	b.runPhase(ops, ck, 0, false)
	if ck.attempted != 10 || ck.failed != 7 {
		t.Fatalf("round 2: %d attempted, %d failed; want 10, 7\n%s", ck.attempted, ck.failed, log.String())
	}
	for _, label := range []string{"wrong-reference", "changes-between-rounds", "errs", "fails-check"} {
		if !strings.Contains(log.String(), "FAIL    "+label+": ") {
			t.Errorf("no failure line for %s in:\n%s", label, log.String())
		}
	}
	if strings.Contains(log.String(), "steady") {
		t.Errorf("a steady operation was reported as failed:\n%s", log.String())
	}
}

// The traced rebuild must reproduce the public call's result: a rebuild
// that disagrees fails its operation.
func TestTracedRebuildMismatchCountsAsFailed(t *testing.T) {
	b := &bench{opts: options{smoke: true}}
	ops := []op{
		{
			label: "agrees",
			run:   func() (outcome, error) { return outcome{fp: "x"}, nil },
			traced: func(obs.SpanHandle) (outcome, func() error, error) {
				return outcome{fp: "x"}, nil, nil
			},
		},
		{
			label: "disagrees",
			run:   func() (outcome, error) { return outcome{fp: "x"}, nil },
			traced: func(obs.SpanHandle) (outcome, func() error, error) {
				return outcome{fp: "y"}, nil, nil
			},
		},
		{
			label: "follow-up-errs",
			run:   func() (outcome, error) { return outcome{fp: "x"}, nil },
			traced: func(obs.SpanHandle) (outcome, func() error, error) {
				return outcome{fp: "x"}, func() error { return errors.New("candidate failed") }, nil
			},
		},
	}
	var log bytes.Buffer
	ck := newChecker(len(ops), &log)
	b.runPhase(ops, ck, 0, false)
	ph := b.runPhase(ops, ck, 0, true)
	if ck.attempted != 6 || ck.failed != 2 {
		t.Fatalf("%d attempted, %d failed; want 6, 2\n%s", ck.attempted, ck.failed, log.String())
	}
	if got := len(ph.tracer.Tree()); got != 3 {
		t.Errorf("traced phase recorded %d root spans, want one per operation (3)", got)
	}
}
