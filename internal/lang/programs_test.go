package lang

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/resccl/resccl/internal/expert"
)

// TestShippedProgramsMatchBuilders ties each shipped ResCCLang program
// in examples/algorithms to its registry builder: at the program's
// size, the program compiles to exactly the builder's transfers.
func TestShippedProgramsMatchBuilders(t *testing.T) {
	for _, c := range []struct {
		file, name  string
		nNodes, gpn int
	}{
		{"ring-allreduce.rcl", "ring-allreduce", 1, 8},
		{"ring-allgather.rcl", "ring-allgather", 1, 8},
		{"mesh-allreduce.rcl", "mesh-allreduce", 1, 8},
		{"binomial-broadcast.rcl", "binomial-broadcast", 1, 8},
		{"direct-alltoall.rcl", "direct-alltoall", 1, 4},
		{"hm-allreduce-2x8.rcl", "hm-allreduce", 2, 8},
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "algorithms", c.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		want, err := expert.BuildOn(c.name, c.nNodes, c.gpn)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Op != want.Op || got.NRanks != want.NRanks {
			t.Errorf("%s is a %d-rank %v, %s a %d-rank %v", c.file, got.NRanks, got.Op, c.name, want.NRanks, want.Op)
			continue
		}
		if !slices.Equal(got.Sorted(), want.Sorted()) {
			t.Errorf("%s: %d transfers differ from %s's %d", c.file, len(got.Transfers), c.name, len(want.Transfers))
		}
	}
}
