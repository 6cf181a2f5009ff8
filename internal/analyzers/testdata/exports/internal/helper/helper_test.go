package helper

import "testing"

func TestSupport(t *testing.T) {
	if Support() == "" {
		t.Fatal("Support")
	}
}
