#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int tankburnerR(int cstate);
extern long k;
extern int stuck;
extern double x, x_u;
extern double c, c_u;
extern int ON, ON_out;
extern int OFF, OFF_out;

static const char *loc0[] = { "t1", "t2", "t3", "t4" };
static const char *loc1[] = { "b1", "b2" };
static struct { long t; unsigned long long m; } *stim;
static long stim_n, stim_cap;

static char buf[65536 + 107], *o = buf;

static void flush(void) {
    fwrite(buf, 1, o - buf, stdout);
    o = buf;
}

static void put(const char *s, size_t n) {
    memcpy(o, s, n);
    o += n;
}

static void put_s(const char *s) {
    put(s, strlen(s));
}

static void put_l(long v) {
    char s[20], *e = s + 20;
    do *--e = '0' + v % 10; while (v /= 10);
    put(e, s + 20 - e);
}

/* one slot of a variable's text cache: the bits of a double and its %.15g */
typedef struct { unsigned long long b; char n, s[23]; } slot;
static slot x_g[16384], c_g[16384];

static void put_g(double v, slot *c) {
    unsigned long long b;
    memcpy(&b, &v, sizeof b);
    c += b * 0x9E3779B97F4A7C15ULL >> 50; /* 16384 slots */
    if (!c->n || c->b != b) {
        c->b = b;
        c->n = snprintf(c->s, sizeof c->s, "%.15g", v);
    }
    *o++ = ',';
    put(c->s, c->n);
}

static void put_e(int on, const char *s) {
    if (on) {
        if (o[-1] != ',') *o++ = ';';
        put_s(s);
    }
}

static int by_tick(const void *a, const void *b) {
    long x = *(const long *)a, y = *(const long *)b;
    return (x > y) - (x < y);
}

static void load_stimulus(const char *path) {
    FILE *fp = fopen(path, "r");
    if (!fp) {
        fprintf(stderr, "cannot open stimulus file %s\n", path);
        exit(2);
    }
    char line[8192];
    for (int row = 1; fgets(line, sizeof line, fp); row++) {
        char *p = line + strspn(line, " \t"), *q;
        if (strchr("#\r\n", *p)) continue;
        long tick = strtol(p, &q, 10);
        q += strspn(q, " \t");
        if (q == p || !strchr(",\r\n", *q)) {
            if (row == 1) continue; /* header line */
            fprintf(stderr, "%s:%d: expected a tick number\n", path, row);
            exit(2);
        }
        if (tick < 0) {
            fprintf(stderr, "%s:%d: negative tick\n", path, row);
            exit(2);
        }
        unsigned long long m = 0;
        for (p = q + (*q == ','); !strchr("\r\n", *p); p = q + (*q == ';')) {
            p += strspn(p, " \t");
            q = p + strcspn(p, ";\r\n");
            long n = q - p;
            while (n && strchr(" \t", p[n - 1])) n--;
            if (n == 2 && !strncmp(p, "ON", 2)) m |= 1ULL;
            if (n == 3 && !strncmp(p, "OFF", 3)) m |= 2ULL;
        }
        if (stim_n == stim_cap) {
            stim_cap = stim_cap ? stim_cap * 2 : 64;
            stim = realloc(stim, stim_cap * sizeof *stim);
            if (!stim) exit(2);
        }
        stim[stim_n].t = tick;
        stim[stim_n++].m = m;
    }
    fclose(fp);
    /* equal ticks merge during lookup */
    if (stim_n) qsort(stim, stim_n, sizeof *stim, by_tick);
}

int main(int argc, char **argv) {
    long ticks = 10000;
    const char *stim_path = 0;
    if (argc > 1) ticks = atol(argv[1]);
    if (argc > 2) stim_path = argv[2];
    if (stim_path) load_stimulus(stim_path);
    int cstate = 0;
    long si = 0;
    fputs("tick,time,location,x,c,inputs,outputs\n", stdout);
    for (long t = 0; t < ticks; t++) {
        cstate = tankburnerR(cstate);
        if (stuck) {
            flush();
            fprintf(stderr, "stuck at tick %ld in state %s%s: no evolution step and no enabled transition (k = %ld)\n", t, loc0[cstate / 2], loc1[cstate % 2], k);
            fprintf(stderr, "  x = %.17g\n", x_u);
            fprintf(stderr, "  c = %.17g\n", c_u);
            if (ON) fprintf(stderr, "  visible: ON\n");
            if (OFF) fprintf(stderr, "  visible: OFF\n");
            exit(3);
        }
        put_l(t);
        *o++ = ',';
        put_l(t / 100);
        put_l(t % 100 + 100);
        o[-3] = '.';
        while (o[-1] == '0') o--;
        if (o[-1] == '.') o--;
        *o++ = ',';
        put_s(loc0[cstate / 2]);
        put_s(loc1[cstate % 2]);
        put_g(x, x_g);
        put_g(c, c_g);
        *o++ = ',';
        *o++ = ',';
        put_e(ON_out, "ON");
        put_e(OFF_out, "OFF");
        *o++ = '\n';
        if (o - buf > 65536) flush();
        unsigned long long mask = 0;
        while (si < stim_n && stim[si].t <= t) mask |= stim[si++].m;
        ON = ((mask >> 0) & 1) || ON_out;
        ON_out = 0;
        OFF = ((mask >> 1) & 1) || OFF_out;
        OFF_out = 0;
    }
    flush();
    return 0;
}
