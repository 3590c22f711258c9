package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Expo builds a Prometheus text exposition (format 0.0.4) by hand —
// the serving tiers depend on nothing outside the standard library.
// Samples may be added in any order; families are buffered and rendered
// grouped, HELP and TYPE once per metric name, at Bytes time. Label
// arguments are flat key/value pairs ("shard", "3", "stage", "fetch").
type Expo struct {
	families map[string]*expoFamily
	order    []string
}

type expoFamily struct {
	name, help, typ string
	lines           []expoLine
}

type expoLine struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // rendered {k="v",...} or ""
	value  float64
}

// NewExpo returns an empty exposition builder.
func NewExpo() *Expo {
	return &Expo{families: map[string]*expoFamily{}}
}

func (e *Expo) family(name, help, typ string) *expoFamily {
	f, ok := e.families[name]
	if !ok {
		f = &expoFamily{name: name, help: help, typ: typ}
		e.families[name] = f
		e.order = append(e.order, name)
	}
	return f
}

// Counter adds one cumulative counter sample.
func (e *Expo) Counter(name, help string, value float64, labels ...string) {
	f := e.family(name, help, "counter")
	f.lines = append(f.lines, expoLine{labels: renderLabels(labels, "", ""), value: value})
}

// Gauge adds one gauge sample.
func (e *Expo) Gauge(name, help string, value float64, labels ...string) {
	f := e.family(name, help, "gauge")
	f.lines = append(f.lines, expoLine{labels: renderLabels(labels, "", ""), value: value})
}

// Histogram adds one histogram series from a snapshot. Bounds are
// exposed in seconds, buckets cumulatively, per the exposition format.
func (e *Expo) Histogram(name, help string, h *HistSnapshot, labels ...string) {
	f := e.family(name, help, "histogram")
	var cum int64
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		le := strconv.FormatFloat(b.Seconds(), 'g', -1, 64)
		f.lines = append(f.lines, expoLine{suffix: "_bucket", labels: renderLabels(labels, "le", le), value: float64(cum)})
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Bounds)]
	}
	f.lines = append(f.lines,
		expoLine{suffix: "_bucket", labels: renderLabels(labels, "le", "+Inf"), value: float64(cum)},
		expoLine{suffix: "_sum", labels: renderLabels(labels, "", ""), value: float64(h.Sum) / 1e9},
		expoLine{suffix: "_count", labels: renderLabels(labels, "", ""), value: float64(cum)},
	)
}

// Emit adds the series a tagged struct declares, so a snapshot type is
// the single definition of its /metrics rendering. v points to a struct;
// its fields are walked in declaration order (that is the family order
// of the page), through nested structs, non-nil pointers and slices of
// structs. A field's `prom` tag is "family[,option]" and its `help` tag
// the family's HELP text:
//
//   - a numeric or bool field with a family emits one sample — a counter
//     when the family ends in _total, else a gauge (bools as 0/1); an
//     option "k=v" adds that label;
//   - a *HistSnapshot field with a family emits a histogram;
//   - a string field with a family and a bare option "k" emits the info
//     gauge family{k=<value>} 1;
//   - a string or integer field tagged ",k" (no family) emits nothing
//     itself: its value labels every series of its struct;
//   - a struct, pointer or slice field tagged ",k=v" labels every series
//     beneath it.
//
// Untagged scalars and nil pointers emit nothing: an absent section is
// absent from the page.
func (e *Expo) Emit(v interface{}, labels ...string) {
	e.emit(reflect.ValueOf(v).Elem(), labels)
}

var (
	histSnapshotType = reflect.TypeOf((*HistSnapshot)(nil))
	float64Type      = reflect.TypeOf(float64(0))
)

func (e *Expo) emit(v reflect.Value, labels []string) {
	t := v.Type()
	with := func(labels []string, k, val string) []string {
		return append(labels[:len(labels):len(labels)], k, val)
	}
	for i := 0; i < t.NumField(); i++ {
		family, opt, _ := strings.Cut(t.Field(i).Tag.Get("prom"), ",")
		if family == "" && opt != "" && !strings.Contains(opt, "=") {
			labels = with(labels, opt, fmt.Sprint(v.Field(i).Interface()))
		}
	}
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		family, opt, _ := strings.Cut(f.Tag.Get("prom"), ",")
		help, lbl := f.Tag.Get("help"), labels
		if k, val, fixed := strings.Cut(opt, "="); fixed {
			lbl = with(labels, k, val)
		}
		if fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				continue
			}
			if fv.Type() == histSnapshotType {
				if family != "" {
					e.Histogram(family, help, fv.Interface().(*HistSnapshot), lbl...)
				}
				continue
			}
			fv = fv.Elem()
		}
		switch fv.Kind() {
		case reflect.Struct:
			e.emit(fv, lbl)
		case reflect.Slice:
			if fv.Type().Elem().Kind() == reflect.Struct {
				for j := 0; j < fv.Len(); j++ {
					e.emit(fv.Index(j), lbl)
				}
			}
		case reflect.String:
			if family != "" {
				e.Gauge(family, help, 1, with(lbl, opt, fv.String())...)
			}
		default:
			if family == "" {
				continue
			}
			var val float64
			switch {
			case fv.Kind() == reflect.Bool:
				if fv.Bool() {
					val = 1
				}
			case fv.CanConvert(float64Type):
				val = fv.Convert(float64Type).Float()
			default:
				continue
			}
			if strings.HasSuffix(family, "_total") {
				e.Counter(family, help, val, lbl...)
			} else {
				e.Gauge(family, help, val, lbl...)
			}
		}
	}
}

// renderLabels renders flat key/value pairs (plus one optional extra
// pair, used for le) as a label block, sorted by key for a stable
// series identity.
func renderLabels(kv []string, extraK, extraV string) string {
	n := len(kv) / 2
	if extraK != "" {
		n++
	}
	if n == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	if extraK != "" {
		pairs = append(pairs, pair{extraK, extraV})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// Bytes renders the exposition. Families appear in first-added order,
// each preceded by its HELP and TYPE lines exactly once.
func (e *Expo) Bytes() []byte {
	var buf bytes.Buffer
	for _, name := range e.order {
		f := e.families[name]
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.typ)
		for _, ln := range f.lines {
			fmt.Fprintf(&buf, "%s%s%s %s\n", f.name, ln.suffix, ln.labels,
				strconv.FormatFloat(ln.value, 'g', -1, 64))
		}
	}
	return buf.Bytes()
}
