package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
}

func TestOptions(t *testing.T) {
	if o := (Options{Tested: 2}); o.Tested != 2 {
		t.Fatal("Tested")
	}
}
