package dag

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// CSR is a list of task rows in compressed sparse row form: row i is
// Items[Off[i]:Off[i+1]]. One offsets array and one flat item array
// stand in for a slice header per row. A well-formed CSR of n rows has
// len(Off) == n+1, Off[0] == 0, non-decreasing offsets and
// Off[n] == len(Items) (see Check); the zero value has no rows.
type CSR struct {
	Off   []int32
	Items []ir.TaskID
}

// Len returns the number of rows.
func (c CSR) Len() int { return max(len(c.Off)-1, 0) }

// Row returns row i, capped at its length: appending to it copies the
// row rather than overwrite the next one.
func (c CSR) Row(i int) []ir.TaskID {
	lo, hi := c.Off[i], c.Off[i+1]
	return c.Items[lo:hi:hi]
}

// Check reports why c is not a well-formed CSR of n rows, nil when it
// is. Row reads of a CSR that fails Check may panic.
func (c CSR) Check(n int) error {
	if len(c.Off) != n+1 {
		return fmt.Errorf("%d offsets for %d rows", len(c.Off), n)
	}
	if c.Off[0] != 0 {
		return fmt.Errorf("row 0 starts at %d", c.Off[0])
	}
	for i := 0; i < n; i++ {
		if c.Off[i+1] < c.Off[i] {
			return fmt.Errorf("row %d ends at %d before it starts at %d", i, c.Off[i+1], c.Off[i])
		}
	}
	if int(c.Off[n]) != len(c.Items) {
		return fmt.Errorf("rows end at %d but hold %d items", c.Off[n], len(c.Items))
	}
	return nil
}

// A CSR is built by count, then fill: newCSR(n), one c.Off[i+1]++ per
// item of row i, counted, one place per item in row order, filled.

// newCSR returns n rows ready for counting.
func newCSR(n int) CSR { return CSR{Off: make([]int32, n+1)} }

// counted turns the row sizes counted into Off[1:] into row starts and
// sizes Items. Each Off[i] is then row i's fill cursor.
func (c *CSR) counted() {
	for i := 1; i < len(c.Off); i++ {
		c.Off[i] += c.Off[i-1]
	}
	c.Items = make([]ir.TaskID, c.Off[len(c.Off)-1])
}

// place appends t to row i during the fill.
func (c *CSR) place(i int, t ir.TaskID) {
	c.Items[c.Off[i]] = t
	c.Off[i]++
}

// filled restores the offsets once every row is full: each cursor has
// reached the start of the next row.
func (c *CSR) filled() {
	copy(c.Off[1:], c.Off)
	c.Off[0] = 0
}
