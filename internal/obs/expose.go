package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines followed by
// one sample line per series, histograms expanded into cumulative
// _bucket/_sum/_count samples. Families are sorted by name and series by
// label values, so the output is byte-deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.Gather() {
		if fam.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(fam.Name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(fam.Help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(fam.Name)
		bw.WriteByte(' ')
		bw.WriteString(string(fam.Type))
		bw.WriteByte('\n')
		for _, s := range fam.Series {
			if fam.Type == TypeHistogram && s.Hist != nil {
				writeHistogram(bw, fam.Name, s)
				continue
			}
			writeSample(bw, fam.Name, s.Labels, "", "", formatValue(s.Value))
		}
	}
	return bw.Flush()
}

// ParseText reads a text exposition page — what WritePrometheus renders —
// into a flat sample-line → value view: the key is everything before the
// value, the series name with its label set verbatim. Comments, blank
// lines and lines that do not end in a number are skipped, so a page from
// a newer or foreign exporter still yields the samples it shares.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// Scrape GETs base+"/metrics" and parses the page (ParseText): the one
// client of the exposition format, for the router's fleet rollup and
// loadgen's counter deltas.
func Scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return ParseText(resp.Body)
}

// writeHistogram expands one histogram series into its exposition lines.
func writeHistogram(bw *bufio.Writer, name string, s Series) {
	h := s.Hist
	for i, ub := range h.UpperBounds {
		writeSample(bw, name+"_bucket", s.Labels, "le", formatValue(ub),
			formatValue(float64(h.Counts[i])))
	}
	writeSample(bw, name+"_bucket", s.Labels, "le", "+Inf", formatValue(float64(h.Count)))
	writeSample(bw, name+"_sum", s.Labels, "", "", formatValue(h.Sum))
	writeSample(bw, name+"_count", s.Labels, "", "", formatValue(float64(h.Count)))
}

// writeSample emits one line: name{labels,extra} value. extraName, when
// non-empty, appends one more label (the histogram "le").
func writeSample(bw *bufio.Writer, name string, labels []Label, extraName, extraVal, value string) {
	bw.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		bw.WriteByte('{')
		first := true
		for _, l := range labels {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(l.Name)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabelValue(l.Value))
			bw.WriteByte('"')
		}
		if extraName != "" {
			if !first {
				bw.WriteByte(',')
			}
			bw.WriteString(extraName)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabelValue(extraVal))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelValue escapes backslash, double-quote, and newline per the
// exposition format.
func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes backslash and newline in # HELP text.
func escapeHelp(s string) string { return helpEscaper.Replace(s) }
