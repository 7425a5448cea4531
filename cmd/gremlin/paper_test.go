package main

import "testing"

func TestPaperUnknownFigure(t *testing.T) {
	if err := gremlin("paper", "-fig", "99"); err == nil {
		t.Fatal("want error for unknown figure")
	}
}

func TestPaperBadFlags(t *testing.T) {
	if err := gremlin("paper", "-scale"); err == nil {
		t.Fatal("want flag error")
	}
}

func TestPaperSingleFigureTiny(t *testing.T) {
	// Figure 7 is the cheapest end-to-end figure; run it at minimal load
	// to exercise the whole path.
	if err := gremlin("paper", "-fig", "7", "-requests", "5", "-scale", "0.01"); err != nil {
		t.Fatalf("run: %v", err)
	}
}
