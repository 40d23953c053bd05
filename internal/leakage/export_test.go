package leakage

import "leakbound/internal/interval"

// RowsOf returns c's curve-table layout to the package's external tests:
// per flags value, 1 + the index of its row (0: not compiled), and the
// number of rows.
func RowsOf(c *Compiled) (rowOf [interval.NumFlags]int32, rows int) {
	return c.tab.rowOf, len(c.tab.rows)
}
