package main

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promMetrics holds one scrape of the program's /metrics endpoint,
// summed over label sets.
type promMetrics map[string]float64

func (p promMetrics) get(name string) float64 { return p[name] }

// scrape reads /metrics from the group's debug listener on loopback.
// An empty address or a failed scrape yields an empty set.
func scrape(addr string) promMetrics {
	if addr == "" {
		return promMetrics{}
	}
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return promMetrics{}
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm parses the Prometheus text format: "name value" or
// "name{labels} value" lines, comments skipped, values of one name
// summed across label sets.
func parseProm(r io.Reader) promMetrics {
	out := promMetrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(name)] += v
	}
	return out
}
