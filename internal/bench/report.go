package bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Report runs every experiment and writes a self-contained markdown
// report: one section per Experiments entry, in order, that fences the
// experiment's `ulpbench -exp` text and follows a figure's text with
// each machine's curves as a markdown table and an ASCII chart.
func Report(w io.Writer) error {
	fmt.Fprintln(w, "# ULP-PiP evaluation report")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `ulpbench -report`; all numbers are virtual time on the")
	fmt.Fprintln(w, "simulated Wallaby (x86_64) and Albireo (AArch64) machines.")
	fmt.Fprintln(w)
	for _, x := range Experiments {
		var text, charts bytes.Buffer
		if _, err := x.Run(&text, func(machine string, series []Series) error {
			fmt.Fprintf(&charts, "### %s\n\n", machine)
			writeSeriesMarkdown(&charts, "size [B]", series)
			fmt.Fprintf(&charts, "```\n%s```\n\n", AsciiChart(series, 52, 12))
			return nil
		}); err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		fmt.Fprintf(w, "## %s\n\n```\n%s\n```\n\n", x.Name, bytes.TrimRight(text.Bytes(), "\n"))
		if _, err := charts.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// writeSeriesMarkdown renders series as one markdown table (x column +
// one column per series).
func writeSeriesMarkdown(w io.Writer, xLabel string, series []Series) {
	fmt.Fprintf(w, "| %s |", xLabel)
	for _, s := range series {
		fmt.Fprintf(w, " %s |", s.Label)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|")
	for range series {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "| %.0f |", series[0].Points[i].X)
		for _, s := range series {
			fmt.Fprintf(w, " %.3f |", s.Points[i].Y)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// AsciiChart renders series as a fixed-size ASCII chart. X positions use
// the point index (the sweeps are log-spaced); Y is scaled to the data
// range. Each series draws with its own glyph; a legend follows.
func AsciiChart(series []Series, width, height int) string {
	if len(series) == 0 || len(series[0].Points) == 0 {
		return "(no data)\n"
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	minY, maxY := series[0].Points[0].Y, series[0].Points[0].Y
	for _, s := range series {
		for _, p := range s.Points {
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	n := len(series[0].Points)
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i, p := range s.Points {
			col := 0
			if n > 1 {
				col = i * (width - 1) / (n - 1)
			}
			row := int(float64(height-1) * (maxY - p.Y) / (maxY - minY))
			grid[row][col] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.2f ┤\n", maxY)
	for _, row := range grid {
		fmt.Fprintf(&b, "         │%s\n", string(row))
	}
	fmt.Fprintf(&b, "%8.2f ┤%s\n", minY, strings.Repeat("─", width))
	b.WriteString("          ")
	for si, s := range series {
		fmt.Fprintf(&b, "%c=%s  ", glyphs[si%len(glyphs)], s.Label)
	}
	b.WriteString("\n")
	return b.String()
}
