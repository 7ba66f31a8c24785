// Package csvio reads and writes relations and labeled pair sets as CSV
// files, the interchange format for bringing external data into the study
// framework (and for exporting the synthetic benchmarks for inspection).
//
// Two layouts are supported:
//
//   - Relation files: one record per row, first column optionally an id
//     (header "id"), remaining columns attribute values.
//   - Pair files: the paper's benchmark layout, one candidate pair per
//     row — left attributes prefixed "left_", right attributes prefixed
//     "right_", and an optional "label" column with 0/1.
//
// Per the cross-dataset restrictions, header names are carried for
// round-tripping but matchers never see them.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/record"
)

// ReadRelation parses a relation CSV: a header row followed by records.
// If the first header column is "id" (case-insensitive), it supplies the
// record IDs; otherwise IDs are row numbers.
func ReadRelation(r io.Reader) ([]record.Record, record.Schema, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, record.Schema{}, fmt.Errorf("csvio: reading relation: %w", err)
	}
	if len(rows) == 0 {
		return nil, record.Schema{}, fmt.Errorf("csvio: empty relation file")
	}
	header := rows[0]
	hasID := len(header) > 0 && strings.EqualFold(header[0], "id")
	attrStart := 0
	if hasID {
		attrStart = 1
	}
	schema := record.Schema{Names: append([]string(nil), header[attrStart:]...)}
	var records []record.Record
	for i, row := range rows[1:] {
		if len(row) < attrStart {
			continue
		}
		id := fmt.Sprintf("r%d", i+1)
		if hasID && row[0] != "" {
			id = row[0]
		}
		vals := make([]string, len(schema.Names))
		copy(vals, row[attrStart:])
		records = append(records, record.Record{ID: id, Values: vals})
	}
	return records, schema, nil
}

// ReadPairs parses a pair CSV in the benchmark layout. Columns prefixed
// "left_"/"right_" hold the two records' attributes (in file order); the
// optional "label" column holds 0/1 ground truth (absent labels default to
// false and hasLabels reports whether any were present).
func ReadPairs(r io.Reader) (pairs []record.LabeledPair, schema record.Schema, hasLabels bool, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, record.Schema{}, false, fmt.Errorf("csvio: reading pairs: %w", err)
	}
	if len(rows) == 0 {
		return nil, record.Schema{}, false, fmt.Errorf("csvio: empty pair file")
	}
	header := rows[0]
	var leftCols, rightCols []int
	labelCol := -1
	var names []string
	for i, h := range header {
		switch {
		case strings.HasPrefix(strings.ToLower(h), "left_"):
			leftCols = append(leftCols, i)
			names = append(names, h[len("left_"):])
		case strings.HasPrefix(strings.ToLower(h), "right_"):
			rightCols = append(rightCols, i)
		case strings.EqualFold(h, "label"):
			labelCol = i
		}
	}
	if len(leftCols) == 0 || len(leftCols) != len(rightCols) {
		return nil, record.Schema{}, false,
			fmt.Errorf("csvio: pair file needs matching left_/right_ columns (got %d/%d)", len(leftCols), len(rightCols))
	}
	schema = record.Schema{Names: names}
	for rowIdx, row := range rows[1:] {
		get := func(col int) string {
			if col < len(row) {
				return row[col]
			}
			return ""
		}
		left := record.Record{ID: fmt.Sprintf("l%d", rowIdx+1), Values: make([]string, len(leftCols))}
		right := record.Record{ID: fmt.Sprintf("r%d", rowIdx+1), Values: make([]string, len(rightCols))}
		for k, col := range leftCols {
			left.Values[k] = get(col)
		}
		for k, col := range rightCols {
			right.Values[k] = get(col)
		}
		match := false
		if labelCol >= 0 && labelCol < len(row) {
			hasLabels = true
			v, convErr := strconv.Atoi(strings.TrimSpace(row[labelCol]))
			if convErr == nil && v != 0 {
				match = true
			}
		}
		pairs = append(pairs, record.LabeledPair{
			Pair:  record.Pair{Left: left, Right: right},
			Match: match,
		})
	}
	return pairs, schema, hasLabels, nil
}

// WritePairs writes labeled pairs in the benchmark layout, including the
// label column.
func WritePairs(w io.Writer, pairs []record.LabeledPair, schema record.Schema) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, 2*len(schema.Names)+1)
	for _, n := range schema.Names {
		header = append(header, "left_"+n)
	}
	for _, n := range schema.Names {
		header = append(header, "right_"+n)
	}
	header = append(header, "label")
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("csvio: writing pair header: %w", err)
	}
	for i, p := range pairs {
		row := make([]string, 0, len(header))
		row = append(row, padTo(p.Left.Values, len(schema.Names))...)
		row = append(row, padTo(p.Right.Values, len(schema.Names))...)
		label := "0"
		if p.Match {
			label = "1"
		}
		row = append(row, label)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("csvio: writing pair %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDataset exports a benchmark dataset as a pair CSV.
func WriteDataset(w io.Writer, d *record.Dataset) error {
	return WritePairs(w, d.Pairs, d.Schema)
}

func padTo(vals []string, n int) []string {
	out := make([]string, n)
	copy(out, vals)
	return out
}
