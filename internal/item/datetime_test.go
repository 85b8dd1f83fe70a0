package item

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// parseDateTimeSplit is the split-based ParseDateTime the in-place parser
// replaced, kept as its oracle: both must accept exactly the same inputs,
// with the same fields and the same error text.
func parseDateTimeSplit(s string) (DateTime, error) {
	var d DateTime
	bad := func() (DateTime, error) {
		return DateTime{}, fmt.Errorf("item: invalid dateTime %q", s)
	}
	date := s
	if i := strings.IndexByte(s, 'T'); i >= 0 {
		date = s[:i]
		clock := s[i+1:]
		parts := strings.Split(clock, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return bad()
		}
		var err error
		if d.Hour, err = atoiStrict(parts[0]); err != nil {
			return bad()
		}
		if d.Minute, err = atoiStrict(parts[1]); err != nil {
			return bad()
		}
		if len(parts) == 3 {
			if d.Second, err = atoiStrict(parts[2]); err != nil {
				return bad()
			}
		}
	}
	dp := strings.Split(date, "-")
	if len(dp) != 3 {
		return bad()
	}
	var err error
	if d.Year, err = atoiStrict(dp[0]); err != nil {
		return bad()
	}
	if d.Month, err = atoiStrict(dp[1]); err != nil {
		return bad()
	}
	if d.Day, err = atoiStrict(dp[2]); err != nil {
		return bad()
	}
	if d.Month < 1 || d.Month > 12 || d.Day < 1 || d.Day > 31 ||
		d.Hour < 0 || d.Hour > 23 || d.Minute < 0 || d.Minute > 59 ||
		d.Second < 0 || d.Second > 60 {
		return bad()
	}
	return d, nil
}

func atoiStrict(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("non-digit %q", c)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

func checkDateTimeAgainstOracle(t *testing.T, s string) {
	t.Helper()
	got, gerr := ParseDateTime(s)
	want, werr := parseDateTimeSplit(s)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || got != want {
		t.Errorf("ParseDateTime(%q) = %+v, %v; split oracle %+v, %v", s, got, gerr, want, werr)
	}
}

func TestParseDateTimeMatchesSplitOracle(t *testing.T) {
	corpus := []string{
		"", "T", "-", ":", "--", "T:", "2013-12-25", "2013-12-25T00:05",
		"2013-12-25T00:05:07", "2013-12-25T23:59:60", "0-1-1", "00002013-012-025",
		// missing or extra fields
		"2013-12", "2013", "2013-12-25T", "2013-12-25T00", "2013-12-25T00:",
		"2013-12-25T00:05:", "2013-12-25T00:05:07:", "2013-12-25T1:2:3:4",
		"2013-12-25-", "-2013-12-25", "2013--25", "2013-12-25T:05", "2013-12-25T00::07",
		// signs and non-digits
		"+2013-12-25", "-2013-12-25", "2013-+12-25", "2013-12-25T-1:05", "2013-12-25T00:+5",
		"2013-12-2a", "2o13-12-25", "2013-12-25T00:05:0x", "2013-12-25 00:05",
		// out of range
		"2013-13-01", "2013-00-01", "2013-01-32", "2013-01-00", "2013-12-25T24:00",
		"2013-12-25T00:60", "2013-12-25T00:00:61",
		// trailing junk and a second T
		"2013-12-25x", "2013-12-25T00:05x", "2013-12-25T00:05:07Z", "2013-12-25TT00:05",
		"2013-12-25T00:05T", "2013-12-25T00:05:07.5",
		// overflowing digit runs wrap identically
		"99999999999999999999-12-25", "2013-18446744073709551617-25",
	}
	for _, s := range corpus {
		checkDateTimeAgainstOracle(t, s)
	}
	// Random strings over the dateTime alphabet.
	rng := rand.New(rand.NewSource(1))
	const alphabet = "0123456789-:T+ x"
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(22))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		checkDateTimeAgainstOracle(t, string(b))
	}
	// Random valid shapes (most accepted, some out of range).
	for i := 0; i < 5000; i++ {
		s := fmt.Sprintf("%04d-%02d-%02dT%02d:%02d", rng.Intn(3000), rng.Intn(14), rng.Intn(34), rng.Intn(26), rng.Intn(62))
		if rng.Intn(2) == 0 {
			s += fmt.Sprintf(":%02d", rng.Intn(63))
		}
		checkDateTimeAgainstOracle(t, s)
	}
}

func TestParseDateTimeAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseDateTime("2013-12-25T00:05:07"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseDateTime allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzParseDateTime: the []byte form of ParseDateTime, which reads an
// encoded string's bytes in place, accepts exactly what the string form
// accepts, with the same fields and error text, and both agree with the
// split oracle.
func FuzzParseDateTime(f *testing.F) {
	for _, s := range []string{"", "2013-12-25", "2013-12-25T00:05", "2013-12-25T00:05:07",
		"2013-13-01", "2013-12-25T24:00", "+2013-12-25", "2013-12-25TT00:05", "99999999999999999999-12-25"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gerr := ParseDateTime([]byte(s))
		str, serr := ParseDateTime(s)
		want, werr := parseDateTimeSplit(s)
		if got != str || fmt.Sprint(gerr) != fmt.Sprint(serr) {
			t.Fatalf("ParseDateTime([]byte(%q)) = %+v, %v; string form %+v, %v", s, got, gerr, str, serr)
		}
		if str != want || fmt.Sprint(serr) != fmt.Sprint(werr) {
			t.Fatalf("ParseDateTime(%q) = %+v, %v; split oracle %+v, %v", s, str, serr, want, werr)
		}
	})
}
