package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is one printed result of a study: its title, whether its numbers
// come from a model or a measurement on this host, the study's fixed
// parameters, its rows and its notes.
//
// Params (a struct or a pointer to one) and the element type of Rows (a
// slice of structs) declare what prints through `col` struct tags,
// "name,verb,unit,divisor": the column's name, its fmt verb (default
// %v), its unit, and what the value is divided by to be in that unit
// (default 1). Untagged fields do not print. In text a bool prints as x
// or blank, and string columns align left.
type Table struct {
	Name     string // the stem of the table's CSV file
	Title    string
	Measured bool // false: the numbers are modeled
	Params   any
	Rows     any
	// Group is how many leading columns head a group of rows instead of
	// printing in every row of the text: each group starts with their
	// "name=value" line and the column header.
	Group int
	Notes string
}

// column is one `col`-tagged field.
type column struct {
	field            int
	name, verb, unit string
	divisor          float64
	left             bool
}

func columns(t reflect.Type) []column {
	var cols []column
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("col")
		if !ok {
			continue
		}
		p := append(strings.Split(tag, ","), "", "", "")
		c := column{field: i, name: p[0], verb: p[1], unit: p[2], divisor: 1, left: t.Field(i).Type.Kind() == reflect.String}
		if c.verb == "" {
			c.verb = "%v"
		}
		if p[3] != "" {
			c.divisor, _ = strconv.ParseFloat(p[3], 64)
		}
		cols = append(cols, c)
	}
	return cols
}

// number is a numeric field in the column's unit.
func (c column) number(f reflect.Value) float64 {
	switch {
	case f.CanInt():
		return float64(f.Int()) / c.divisor
	case f.CanUint():
		return float64(f.Uint()) / c.divisor
	}
	return f.Float() / c.divisor
}

// text is the field's cell in the text rendering.
func (c column) text(row reflect.Value) string {
	f := row.Field(c.field)
	switch {
	case f.Kind() == reflect.Bool && f.Bool():
		return "x"
	case f.Kind() == reflect.Bool:
		return ""
	case c.divisor != 1:
		return fmt.Sprintf(c.verb, c.number(f))
	}
	return fmt.Sprintf(c.verb, f.Interface())
}

// csv is the field's cell in the CSV: floats to 10 significant digits.
func (c column) csv(row reflect.Value) string {
	f := row.Field(c.field)
	if f.CanFloat() || c.divisor != 1 {
		return strconv.FormatFloat(c.number(f), 'g', 10, 64)
	}
	return fmt.Sprint(f.Interface())
}

var nonWord = regexp.MustCompile(`[^\pL\pN]+`)

// pairs renders cols of v as "name=value unit, ...".
func pairs(cols []column, v reflect.Value) string {
	s := make([]string, len(cols))
	for i, c := range cols {
		s[i] = strings.TrimSpace(c.name + "=" + c.text(v) + " " + c.unit)
	}
	return strings.Join(s, ", ")
}

// Text renders the tables as aligned text, one after another.
func Text(tabs ...Table) string {
	var sb strings.Builder
	for i, t := range tabs {
		if i > 0 {
			sb.WriteString("\n")
		}
		label := "modeled"
		if t.Measured {
			label = "measured"
		}
		sb.WriteString(t.Title + " (" + label + ")\n")
		if t.Params != nil {
			p := reflect.Indirect(reflect.ValueOf(t.Params))
			sb.WriteString(pairs(columns(p.Type()), p) + "\n")
		}
		rows := reflect.ValueOf(t.Rows)
		cols := columns(rows.Type().Elem())
		group, body := cols[:t.Group], cols[t.Group:]
		// cells[0] is the header, cells[r+1] row r.
		cells := make([][]string, rows.Len()+1)
		width := make([]int, len(body))
		for r := range cells {
			for j, c := range body {
				cell := c.name
				if r > 0 {
					cell = c.text(rows.Index(r - 1))
				} else if c.unit != "" {
					cell += " (" + c.unit + ")"
				}
				cells[r] = append(cells[r], cell)
				width[j] = max(width[j], utf8.RuneCountInString(cell))
			}
		}
		line := func(cells []string) {
			var lb strings.Builder
			for j, cell := range cells {
				w := width[j]
				if body[j].left {
					w = -w
				}
				lb.WriteString(fmt.Sprintf("%*s  ", w, cell))
			}
			sb.WriteString(strings.TrimRight(lb.String(), " ") + "\n")
		}
		last := ""
		for r := 0; r < rows.Len(); r++ {
			if g := pairs(group, rows.Index(r)); r == 0 || g != last {
				if g != "" {
					sb.WriteString(g + "\n")
				}
				line(cells[0])
				last = g
			}
			line(cells[r+1])
		}
		sb.WriteString(t.Notes)
	}
	return sb.String()
}

// WriteCSV writes the table's rows as CSV: a header of the column names
// and units in snake case, then one line per row.
func WriteCSV(w io.Writer, t Table) error {
	rows := reflect.ValueOf(t.Rows)
	cols := columns(rows.Type().Elem())
	cw := csv.NewWriter(w)
	line := make([]string, len(cols))
	for j, c := range cols {
		line[j] = strings.Trim(nonWord.ReplaceAllString(strings.ToLower(c.name+" "+c.unit), "_"), "_")
	}
	// A failed Write surfaces in Error after the Flush.
	_ = cw.Write(line)
	for r := 0; r < rows.Len(); r++ {
		for j, c := range cols {
			line[j] = c.csv(rows.Index(r))
		}
		_ = cw.Write(line)
	}
	cw.Flush()
	return cw.Error()
}
