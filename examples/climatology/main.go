// The climatology example is the capstone workload: a year of daily
// gridded temperatures in a NetCDF file, read lazily through the session's
// tile cache (section 7 future work #1), indexed by physical latitude
// coordinates (future work #2), and reduced with AQL group-by queries —
// monthly means via the index construct's implicit grouping (section 2).
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"github.com/aqldb/aql"
	"github.com/aqldb/aql/internal/coord"
	"github.com/aqldb/aql/internal/netcdf"
)

const days = 365

var latValues = []float64{-60, -45, -30, -15, 0, 15, 30, 45, 60}

func main() {
	dir, err := os.MkdirTemp("", "aql-climatology")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "climate.nc")
	writeClimate(path)
	fmt.Printf("wrote %d days x %d latitudes of daily means to %s\n\n", days, len(latValues), path)

	// The latitude axis comes from the file's own coordinate variable (the
	// NetCDF convention).
	f, err := netcdf.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	axis, err := coord.FromNetCDF(f, "lat")
	if err != nil {
		log.Fatal(err)
	}

	s, err := aql.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	if err := s.RegisterAxis("lat", axis.Values); err != nil {
		log.Fatal(err)
	}

	// Load the whole grid (shaped [days][lats]).
	load := fmt.Sprintf(`readval \T using NETCDF2 at (%q, "temp", (0, 0), (%d, %d));`,
		path, days-1, len(latValues)-1)
	if _, err := s.Exec(load); err != nil {
		log.Fatal(err)
	}

	// Month arithmetic and an averaging macro, in AQL.
	prelude := `
	  val \mdays = [[31,28,31,30,31,30,31,31,30,31,30,31]];
	  macro \month_of = fn \d =>
	    count!{m | \m <- gen!12, summap(fn \i => mdays[i])!(gen!(m+1)) <= d};
	  macro \avg = fn \S => summap(fn \x => x)!S / real!(count!S);
	`
	if _, err := s.Exec(prelude); err != nil {
		log.Fatal(err)
	}

	// Monthly means at NYC's latitude via the index construct: group day
	// temperatures by month, then average each group — the hist' pattern
	// of section 2 applied to climatology.
	fmt.Println("monthly mean temperature at latitude 40.7N (via index group-by):")
	v, _, err := s.Query(`
	  let val \ny = lat_index!40.7
	      val \byMonth = index_1!{p | \d <- gen!365, \p == (month_of!d, T[d, ny])}
	  in [[ avg!(byMonth[m]) | \m < len!byMonth ]] end`)
	if err != nil {
		log.Fatal(err)
	}
	names := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	months, err := v.Cells()
	if err != nil {
		log.Fatal(err)
	}
	for m, x := range months {
		fmt.Printf("  %s %6.1f°F\n", names[m], x.R)
	}

	// The annual north-south profile.
	fmt.Println("\nannual mean by latitude band:")
	v2, _, err := s.Query(`[[ avg!{t | [(_, l) : \t] <- T} | \l < dim_2_2!T ]]`)
	if err != nil {
		log.Fatal(err)
	}
	bands, err := v2.Cells()
	if err != nil {
		log.Fatal(err)
	}
	for i, x := range bands {
		c, _ := axis.Coord(i)
		fmt.Printf("  lat %+5.0f° %6.1f°F\n", c, x.R)
	}

	// A coordinate-bounded tropical mean: physical degrees in, indices out.
	v3, _, err := s.Query(`
	  let val (\lo, \hi) = lat_range!(-20.0, 20.0)
	  in avg!{t | [(_, \l) : \t] <- T, l >= lo, l <= hi} end`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntropical (±20°) annual mean: %.1f°F\n", v3.R)
}

// writeClimate synthesizes a year of daily mean temperatures over a
// latitude transect: warm equator, cool poles, opposite seasons per
// hemisphere.
func writeClimate(path string) {
	b := netcdf.NewBuilder()
	ti, err := b.AddDim("time", days)
	if err != nil {
		log.Fatal(err)
	}
	la, _ := b.AddDim("lat", len(latValues))
	if err := b.AddVar("lat", netcdf.Double, []int{la}, nil, latValues); err != nil {
		log.Fatal(err)
	}
	data := make([]float64, days*len(latValues))
	for d := 0; d < days; d++ {
		season := math.Cos(2 * math.Pi * float64(d-15) / 365) // northern winter near Jan 15
		for li, lat := range latValues {
			base := 80 - 0.6*math.Abs(lat)        // warm equator, cool poles
			seasonal := -18 * season * (lat / 90) // hemispheres oppose
			data[d*len(latValues)+li] = base + seasonal
		}
	}
	if err := b.AddVar("temp", netcdf.Double, []int{ti, la}, nil, data); err != nil {
		log.Fatal(err)
	}
	if err := b.WriteFile(path); err != nil {
		log.Fatal(err)
	}
}
