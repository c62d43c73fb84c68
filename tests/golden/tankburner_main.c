#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void react_tankburner(void);
extern long k;
extern int stuck, l0, l1;
extern unsigned long long vis, emit;
extern double v_x, n_x;
extern double v_c, n_c;

static const char *loc0[] = { "t1", "t2", "t3", "t4" };
static const char *loc1[] = { "b1", "b2" };
static struct { long t; unsigned long long m; } *stim;
static long stim_n, stim_cap;

static char buf[65536 + 107], *o = buf;
static char ds[40] = "0000000000000000000,", *f = ds + 18, *g = ds + 16, *p;

static void flush(void) {
    fwrite(buf, 1, o - buf, stdout);
    o = buf;
}

static void put_s(const char *s) {
    size_t n = strlen(s);
    memcpy(o, s, n);
    o += n;
}

static int fmt_g(char *s, double v) {
    double a = fabs(v), p = 1e14, t = 10, h = 0;
    long long n = 0;
    int x = 0, i;
    char *e, *q;
    if (a >= 1 && a < 1e15 - .5) {
        for (; a >= t; x++) t *= 10, p /= 10;
        n = h = a * p;
        h -= n;
    }
    if (!n || h == .5) return snprintf(s, 23, "%.15g", v);
    n += h > .5;
    if (n > 999999999999999) n /= 10, x++;
    for (i = 14 - x; i && n % 10 == 0; i--) n /= 10;
    *s = '-';
    e = q = s + (v < 0) + x + 1 + i + !!i;
    for (; n; n /= 10) {
        *--q = '0' + n % 10;
        if (!--i) *--q = '.';
    }
    return e - s;
}

typedef struct { unsigned long long b; char n, s[23]; } slot;
static slot g_x[16384], g_c[16384];

static void put_g(double v, slot *c) {
    unsigned long long b;
    int i = 0;
    memcpy(&b, &v, sizeof b);
    c += b * 0x9E3779B97F4A7C15ULL >> 52 << 2;
    while (i < 4 && (!c[i].n || c[i].b != b)) i++;
    if (i == 4) {
        memmove(c + 1, c, 3 * sizeof *c);
        c->b = b;
        c->n = fmt_g(c->s, v);
        i = 0;
    }
    *o++ = ',';
    memcpy(o, c[i].s, sizeof c->s);
    o += c[i].n;
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
            if (row == 1) continue;
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
    long si = 0;
    fputs("tick,time,location,x,c,inputs,outputs\n", stdout);
    for (long t = 0; t < ticks; t++) {
        react_tankburner();
        if (stuck) {
            flush();
            fprintf(stderr, "stuck at tick %ld in state %s%s: no evolution step and no enabled transition (k = %ld)\n", t, loc0[l0], loc1[l1], k);
            fprintf(stderr, "  x = %.17g\n", n_x);
            fprintf(stderr, "  c = %.17g\n", n_c);
            if (vis >> 0 & 1) fprintf(stderr, "  visible: ON\n");
            if (vis >> 1 & 1) fprintf(stderr, "  visible: OFF\n");
            exit(3);
        }
        memcpy(o, f, 20);
        o += ds + 20 - f;
        memcpy(o, g, 20);
        o += ds + 20 - g;
        memmove(o - 2, o - 3, 2);
        o[-3] = '.';
        while (o[-1] == '0') o--;
        if (o[-1] == '.') o--;
        *o++ = ',';
        put_s(loc0[l0]);
        put_s(loc1[l1]);
        put_g(v_x, g_x);
        put_g(v_c, g_c);
        *o++ = ',';
        *o++ = ',';
        put_e(emit >> 0 & 1, "ON");
        put_e(emit >> 1 & 1, "OFF");
        *o++ = '\n';
        if (o - buf > 65536) flush();
        vis = emit;
        emit = 0;
        while (si < stim_n && stim[si].t <= t) vis |= stim[si++].m;
        for (p = ds + 18, *p += 1; *p > '9'; ++*--p) *p -= 10;
        if (p < f) f = p;
        if (p < g) g = p;
    }
    flush();
    return 0;
}
